package wat

import (
	"math"
	"testing"
	"testing/quick"

	"wfsort/internal/model"
	"wfsort/internal/pram"
)

// runWriteAll executes the skeleton algorithm over `jobs` cells with P
// processors under the given scheduler and returns (machine, metrics).
func runWriteAll(t *testing.T, jobs, p int, seed uint64, sched pram.Scheduler) (*pram.Machine, *model.Metrics) {
	t.Helper()
	var a model.Arena
	w := New(&a, jobs)
	out := a.Array(jobs)
	m := pram.New(pram.Config{P: p, Mem: a.Size(), Seed: seed, Sched: sched})
	w.Seed(m.Memory(), w.Jobs())
	met, err := m.Run(func(pr model.Proc) {
		w.Run(pr, func(j int) {
			pr.Write(out.At(j), 1)
		})
	})
	if err != nil {
		t.Fatalf("Run(jobs=%d P=%d): %v", jobs, p, err)
	}
	for j := 0; j < jobs; j++ {
		if m.Memory()[out.At(j)] != 1 {
			t.Fatalf("jobs=%d P=%d: cell %d not written", jobs, p, j)
		}
	}
	return m, met
}

func TestWriteAllSingleProcessor(t *testing.T) {
	runWriteAll(t, 13, 1, 0, nil)
}

func TestWriteAllManyShapes(t *testing.T) {
	for _, tc := range []struct{ jobs, p int }{
		{1, 1}, {1, 4}, {2, 2}, {3, 2}, {7, 7}, {8, 8}, {9, 4},
		{16, 16}, {33, 8}, {64, 64}, {100, 10}, {128, 3}, {255, 256},
	} {
		runWriteAll(t, tc.jobs, tc.p, uint64(tc.jobs*1000+tc.p), nil)
	}
}

func TestWriteAllSerializedSchedule(t *testing.T) {
	runWriteAll(t, 32, 8, 1, pram.RoundRobin(1))
}

func TestWriteAllRandomSchedule(t *testing.T) {
	runWriteAll(t, 64, 16, 2, pram.RandomSubset(0.25))
}

func TestWriteAllSurvivesCrashes(t *testing.T) {
	// Kill most processors early; the survivors must still cover all
	// leaves — the essence of wait-freedom.
	const jobs, p = 64, 16
	crashes := pram.RandomCrashes(p, 0.75, 50, 99)
	if len(crashes) == 0 {
		t.Fatal("test needs at least one crash")
	}
	// Never kill everyone: keep pid 0 alive.
	kept := crashes[:0]
	for _, c := range crashes {
		if c.PID != 0 {
			kept = append(kept, c)
		}
	}
	runWriteAll(t, jobs, p, 3, pram.WithCrashes(pram.Synchronous(), kept))
}

func TestLemma23StepsLogarithmic(t *testing.T) {
	// With P = N and O(1) jobs, completion should take O(log N) steps.
	// Check that steps grow like c·log N, not like N.
	prev := int64(0)
	for _, n := range []int{16, 64, 256, 1024} {
		_, met := runWriteAll(t, n, n, uint64(n), nil)
		logN := int64(math.Log2(float64(n)))
		if met.Steps > 8*logN+16 {
			t.Errorf("N=P=%d: steps = %d, want O(log N) ≈ %d", n, met.Steps, logN)
		}
		if met.Steps < prev {
			// Steps should be monotone-ish in N; not a strict law, just
			// a sanity check against pathological behaviour.
			t.Logf("steps decreased: N=%d steps=%d prev=%d", n, met.Steps, prev)
		}
		prev = met.Steps
	}
}

func TestLemma21NextElementOpsLogarithmic(t *testing.T) {
	// A single next_element call from a leaf of an otherwise-empty tree
	// must finish within O(log N) operations (Lemma 2.1). The worst
	// case for the descent is a fresh tree; for the climb, a tree whose
	// other half is fully DONE.
	for _, n := range []int{4, 16, 64, 256, 1024, 4096} {
		var a model.Arena
		w := New(&a, n)
		m := pram.New(pram.Config{P: 1, Mem: a.Size()})
		w.Seed(m.Memory(), w.Jobs())
		met, err := m.Run(func(pr model.Proc) {
			i := w.LeafNode(0)
			w.NextElement(pr, i)
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		logN := math.Log2(float64(n))
		if float64(met.Ops) > 4*logN+8 {
			t.Errorf("n=%d: next_element used %d ops, want O(log N) ≈ %.0f", n, met.Ops, logN)
		}
	}
}

func TestNextElementFromLastLeafClimbsToRoot(t *testing.T) {
	// Complete every leaf but one sequentially; the final call must
	// return NoWork.
	const n = 8
	var a model.Arena
	w := New(&a, n)
	m := pram.New(pram.Config{P: 1, Mem: a.Size()})
	w.Seed(m.Memory(), w.Jobs())
	_, err := m.Run(func(pr model.Proc) {
		visited := 0
		i := w.LeafNode(0)
		for i != NoWork {
			if w.JobOf(i) >= 0 {
				visited++
			}
			i = w.NextElement(pr, i)
		}
		if visited != n {
			t.Errorf("visited %d leaves, want %d", visited, n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSeedMarksPaddingOnly(t *testing.T) {
	var a model.Arena
	w := New(&a, 5) // leaves = 8, padding jobs 5..7
	mem := make([]model.Word, a.Size())
	w.Seed(mem, w.Jobs())
	for j := 0; j < 5; j++ {
		if mem[w.tree.At(w.LeafNode(j))] != model.Empty {
			t.Errorf("real leaf %d pre-marked", j)
		}
	}
	for n := w.leaves + 5; n < 2*w.leaves; n++ {
		if mem[w.tree.At(n)] != model.Done {
			t.Errorf("padding leaf node %d not pre-marked", n)
		}
	}
	// Parent of leaves 6,7 covers only padding: must be DONE.
	if mem[w.tree.At((w.leaves+6)/2)] != model.Done {
		t.Error("padding-only inner node not pre-marked")
	}
	// Parent of leaves 4,5 covers a real job: must be EMPTY.
	if mem[w.tree.At((w.leaves+4)/2)] != model.Empty {
		t.Error("mixed inner node wrongly pre-marked")
	}
}

// TestSeedLiveJobsRunsOnlyThem: a tree laid out for 16 jobs but seeded
// for 5 runs exactly jobs 0..4, under any processor count, and a tree
// seeded for none starts complete.
func TestSeedLiveJobsRunsOnlyThem(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		var a model.Arena
		w := New(&a, 16)
		out := a.Array(16)
		m := pram.New(pram.Config{P: p, Mem: a.Size()})
		w.Seed(m.Memory(), 5)
		if _, err := m.Run(func(pr model.Proc) {
			w.Run(pr, func(j int) { pr.Write(out.At(j), 1) })
		}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 16; j++ {
			if got, want := m.Memory()[out.At(j)], model.Word(0); (j < 5) == (got == want) {
				t.Errorf("P=%d: cell %d = %d with 5 live jobs", p, j, got)
			}
		}
	}
	var a model.Arena
	w := New(&a, 4)
	mem := make([]model.Word, a.Size())
	w.Seed(mem, 0)
	if mem[w.NodeAddr(1)] != model.Done {
		t.Error("zero-job seed left the root open")
	}
}

func TestSingleJobTree(t *testing.T) {
	var a model.Arena
	w := New(&a, 1)
	m := pram.New(pram.Config{P: 3, Mem: a.Size() + 1})
	out := a.Size()
	w.Seed(m.Memory(), w.Jobs())
	_, err := m.Run(func(pr model.Proc) {
		w.Run(pr, func(j int) { pr.Write(out, 1) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Memory()[out] != 1 {
		t.Error("single job not executed")
	}
}

func TestJobOfAndLeafNodeRoundTrip(t *testing.T) {
	f := func(jobs8 uint8, j8 uint8) bool {
		jobs := int(jobs8)%200 + 1
		j := int(j8) % jobs
		var a model.Arena
		w := New(&a, jobs)
		return w.JobOf(w.LeafNode(j)) == j
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInitialLeafSpread(t *testing.T) {
	var a model.Arena
	const jobs, p = 64, 8
	w := New(&a, jobs)
	seen := make(map[int]bool)
	for pid := 0; pid < p; pid++ {
		leaf := w.InitialLeaf(pid, p)
		if seen[leaf] {
			t.Errorf("pid %d starts at an already-assigned leaf %d", pid, leaf)
		}
		seen[leaf] = true
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 9: 16, 1000: 1024}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	var a model.Arena
	w := New(&a, 5)
	if w.Jobs() != 5 {
		t.Errorf("Jobs = %d", w.Jobs())
	}
	if w.Leaves() != 8 {
		t.Errorf("Leaves = %d, want 8", w.Leaves())
	}
	if w.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", w.Depth())
	}
	if !w.IsLeaf(w.LeafNode(0)) || w.IsLeaf(1) {
		t.Error("IsLeaf wrong")
	}
	if w.JobOf(1) != -1 {
		t.Error("JobOf(inner) should be -1")
	}
	if w.JobOf(w.Leaves()+7) != -1 {
		t.Error("JobOf(padding) should be -1")
	}
}

func TestLeafNodeRejectsOutOfRange(t *testing.T) {
	var a model.Arena
	w := New(&a, 4)
	for _, bad := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LeafNode(%d) did not panic", bad)
				}
			}()
			w.LeafNode(bad)
		}()
	}
}

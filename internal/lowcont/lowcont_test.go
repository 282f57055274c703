package lowcont

import (
	"math"
	"sort"
	"testing"

	"wfsort/internal/core"
	"wfsort/internal/model"
	"wfsort/internal/pram"
	"wfsort/internal/xrand"
)

func lessFor(keys []int) func(i, j int) bool {
	return func(i, j int) bool {
		a, b := keys[i-1], keys[j-1]
		if a != b {
			return a < b
		}
		return i < j
	}
}

func wantRanks(keys []int) []int {
	n := len(keys)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i + 1
	}
	less := lessFor(keys)
	sort.Slice(ids, func(a, b int) bool { return less(ids[a], ids[b]) })
	ranks := make([]int, n)
	for pos, id := range ids {
		ranks[id-1] = pos + 1
	}
	return ranks
}

func randKeys(n int, seed uint64) []int {
	rng := xrand.New(seed)
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(4 * n)
	}
	return keys
}

func runLCSort(t *testing.T, keys []int, p int, seed uint64, sched pram.Scheduler) (*Sorter, *pram.Machine, *model.Metrics) {
	t.Helper()
	var a model.Arena
	s := New(&a, len(keys), p)
	m := pram.New(pram.Config{
		P: p, Mem: a.Size(), Seed: seed, Sched: sched, Less: lessFor(keys),
	})
	s.Seed(m.Memory())
	met, err := m.Run(s.Program())
	if err != nil {
		t.Fatalf("lc-sort(n=%d P=%d seed=%d): %v", len(keys), p, seed, err)
	}
	want := wantRanks(keys)
	got := s.Places(m.Memory())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lc-sort(n=%d P=%d seed=%d): element %d placed %d, want %d",
				len(keys), p, seed, i+1, got[i], want[i])
		}
	}
	out := s.Output(m.Memory())
	for r := range out {
		if want[out[r]-1] != r+1 {
			t.Fatalf("shuffle: position %d holds element %d with rank %d", r, out[r], want[out[r]-1])
		}
	}
	return s, m, met
}

func TestLCSortSmallShapes(t *testing.T) {
	for _, tc := range []struct{ n, p int }{
		{4, 4}, {5, 4}, {8, 4}, {9, 9}, {16, 4}, {16, 16},
		{25, 25}, {30, 9}, {64, 16}, {64, 64}, {100, 36},
	} {
		runLCSort(t, randKeys(tc.n, uint64(tc.n*7+tc.p)), tc.p, uint64(tc.n+tc.p), nil)
	}
}

func TestLCSortManySeeds(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		runLCSort(t, randKeys(60, seed), 16, seed, nil)
	}
}

func TestLCSortLarger(t *testing.T) {
	runLCSort(t, randKeys(512, 1), 256, 2, nil)
	runLCSort(t, randKeys(1024, 2), 64, 3, nil)
}

func TestLCSortSortedInput(t *testing.T) {
	n := 128
	asc := make([]int, n)
	desc := make([]int, n)
	for i := range asc {
		asc[i] = i
		desc[i] = n - i
	}
	runLCSort(t, asc, 16, 4, nil)
	runLCSort(t, desc, 16, 5, nil)
}

func TestLCSortDuplicateKeys(t *testing.T) {
	keys := make([]int, 90)
	for i := range keys {
		keys[i] = i % 3
	}
	runLCSort(t, keys, 25, 6, nil)
}

func TestLCSortSerializedSchedule(t *testing.T) {
	runLCSort(t, randKeys(40, 7), 9, 7, pram.RoundRobin(1))
}

func TestLCSortRandomSchedule(t *testing.T) {
	runLCSort(t, randKeys(64, 8), 16, 8, pram.RandomSubset(0.3))
}

func TestLCSortSurvivesCrashes(t *testing.T) {
	for trial := uint64(0); trial < 5; trial++ {
		const n, p = 80, 16
		crashes := pram.RandomCrashes(p, 0.6, 400, 50+trial)
		kept := crashes[:0]
		for _, c := range crashes {
			if c.PID != 0 {
				kept = append(kept, c)
			}
		}
		runLCSort(t, randKeys(n, trial), p, trial,
			pram.WithCrashes(pram.Synchronous(), kept))
	}
}

func TestLCSortCrashWholeGroups(t *testing.T) {
	// Kill every processor of two of the four groups early; survivors
	// must sort everything, including the dead groups' slices.
	const n, p = 64, 16 // G = 4, groups of 4 pids
	var crashes []pram.Crash
	for pid := 4; pid < 12; pid++ {
		crashes = append(crashes, pram.Crash{Step: 5, PID: pid})
	}
	runLCSort(t, randKeys(n, 9), p, 9, pram.WithCrashes(pram.Synchronous(), crashes))
}

func TestHeadlineContentionSqrtP(t *testing.T) {
	// The paper's §3 headline: contention drops from O(P) to
	// O(sqrt(P)). Compare the deterministic Section 2 sort with the
	// Section 3 sort at P = N and check the randomized variant stays
	// within a constant of sqrt(P) while the deterministic one scales
	// linearly.
	type row struct{ p, det, lc int }
	var rows []row
	for _, p := range []int{64, 256, 1024} {
		keys := randKeys(p, uint64(p))

		var aDet model.Arena
		det := core.NewSorter(&aDet, p, core.AllocWAT)
		mDet := pram.New(pram.Config{P: p, Mem: aDet.Size(), Seed: 1, Less: lessFor(keys)})
		det.Seed(mDet.Memory(), det.N())
		metDet, err := mDet.Run(det.Program())
		if err != nil {
			t.Fatal(err)
		}

		_, _, metLC := runLCSort(t, keys, p, 1, nil)
		rows = append(rows, row{p, metDet.MaxContention, metLC.MaxContention})
	}
	for _, r := range rows {
		t.Logf("P=%4d  deterministic=%4d  lowcont=%4d  sqrt(P)=%.0f",
			r.p, r.det, r.lc, math.Sqrt(float64(r.p)))
		if float64(r.lc) > 8*math.Sqrt(float64(r.p)) {
			t.Errorf("P=%d: low-contention sort hit contention %d, want O(sqrt(P)) ≈ %.0f",
				r.p, r.lc, math.Sqrt(float64(r.p)))
		}
	}
	// The deterministic sort's contention must grow linearly with P
	// (every processor starts at the root), the randomized one must
	// grow strictly slower.
	last := rows[len(rows)-1]
	if last.det < last.p/2 {
		t.Errorf("deterministic contention %d unexpectedly low for P=%d", last.det, last.p)
	}
	if last.lc*4 > last.det {
		t.Errorf("low-contention sort (%d) not clearly below deterministic (%d) at P=%d",
			last.lc, last.det, last.p)
	}
}

func TestWinnerIsAFinishedGroup(t *testing.T) {
	// The elected winner must be a group whose slice was completely
	// sorted when its candidate was posted; validated indirectly by
	// checking the winner tree root holds a valid group id and that
	// that group's slice is in sorted order in its out region.
	keys := randKeys(64, 11)
	s, m, _ := runLCSort(t, keys, 16, 11, nil)
	w := int(m.Memory()[s.winner.At(1)]) - 1
	if w < 0 || w >= s.groupCount {
		t.Fatalf("winner root holds %d, not a group id", w+1)
	}
	grp := &s.groups[w]
	less := lessFor(keys)
	prev := 0
	for r := 0; r < grp.size; r++ {
		local := int(m.Memory()[grp.sorter.OutAddr(r)])
		global := grp.base + local
		if prev != 0 && !less(prev, global) {
			t.Fatalf("winner slice not sorted at rank %d", r+1)
		}
		prev = global
	}
}

func TestFatTreeMostlyFilled(t *testing.T) {
	// Write-most should fill the overwhelming majority of duplicate
	// slots in a faultless run (coupon collector: P log P writes over
	// <= P slots).
	s, m, _ := runLCSort(t, randKeys(256, 12), 256, 12, nil)
	filled := 0
	total := s.fatNodes * s.dup
	for i := 0; i < total; i++ {
		if m.Memory()[s.fat.At(i)] != model.Empty {
			filled++
		}
	}
	if float64(filled) < 0.95*float64(total) {
		t.Errorf("fat tree %d/%d filled, want >= 95%%", filled, total)
	}
}

func TestTreeDepthLogarithmic(t *testing.T) {
	// The §3 tree is rooted at the winner's median sample with fat
	// spreading; depth should be O(log N) w.h.p. on random input.
	for _, n := range []int{256, 1024} {
		s, m, _ := runLCSort(t, randKeys(n, uint64(n)), n, uint64(n), nil)
		d := s.Depth(m.Memory())
		logN := math.Log2(float64(n))
		if float64(d) > 8*logN {
			t.Errorf("n=%d: tree depth %d, want O(log N) ≈ %.0f", n, d, logN)
		}
	}
}

func TestGroupMappingInvariants(t *testing.T) {
	for _, tc := range []struct{ n, p int }{
		{4, 4}, {10, 5}, {100, 17}, {64, 64}, {1000, 99}, {4096, 4096},
	} {
		var a model.Arena
		s := New(&a, tc.n, tc.p)
		// Every pid maps to the group that owns it.
		for pid := 0; pid < tc.p; pid++ {
			g := s.groupOf(pid)
			grp := s.groups[g]
			if pid < grp.firstPID || pid >= grp.firstPID+grp.procs {
				t.Fatalf("n=%d p=%d: pid %d mapped to group %d [%d,%d)",
					tc.n, tc.p, pid, g, grp.firstPID, grp.firstPID+grp.procs)
			}
		}
		// Slices tile 1..n exactly.
		covered := 0
		for gi, grp := range s.groups {
			if grp.base != covered {
				t.Fatalf("n=%d p=%d: group %d base %d, want %d", tc.n, tc.p, gi, grp.base, covered)
			}
			if grp.size < 1 || grp.procs < 1 {
				t.Fatalf("n=%d p=%d: group %d empty (size=%d procs=%d)", tc.n, tc.p, gi, grp.size, grp.procs)
			}
			covered += grp.size
		}
		if covered != tc.n {
			t.Fatalf("n=%d p=%d: slices cover %d elements", tc.n, tc.p, covered)
		}
		// Sample ranks valid and strictly increasing for every slice
		// length in use.
		for _, grp := range s.groups {
			prev := 0
			for k := 1; k <= s.fatNodes; k++ {
				r := s.sampleRank(k, grp.size)
				if r <= prev || r > grp.size {
					t.Fatalf("n=%d p=%d size=%d: sampleRank(%d) = %d after %d",
						tc.n, tc.p, grp.size, k, r, prev)
				}
				if s.sampleIndexOfRank(r, grp.size) != k {
					t.Fatalf("sampleIndexOfRank(%d) != %d", r, k)
				}
				prev = r
			}
			// Non-sample ranks must map to 0.
			for r := 1; r <= grp.size; r++ {
				k := s.sampleIndexOfRank(r, grp.size)
				if k != 0 && s.sampleRank(k, grp.size) != r {
					t.Fatalf("sampleIndexOfRank(%d) = %d is wrong", r, k)
				}
			}
		}
	}
}

func TestInorderHeapBijection(t *testing.T) {
	for _, p := range []int{4, 16, 64, 256, 1024} {
		var a model.Arena
		s := New(&a, p, p)
		seen := make(map[int]bool)
		for h := 1; h <= s.fatNodes; h++ {
			k := s.inorderIndex(h)
			if k < 1 || k > s.fatNodes || seen[k] {
				t.Fatalf("p=%d: inorderIndex(%d) = %d invalid", p, h, k)
			}
			seen[k] = true
			if s.heapOfInorder(k) != h {
				t.Fatalf("p=%d: heapOfInorder(inorderIndex(%d)) = %d", p, h, s.heapOfInorder(k))
			}
		}
		// In-order indices must be BST-consistent: left subtree of h
		// has smaller in-order indices, right larger.
		var checkBST func(h, lo, hi int)
		checkBST = func(h, lo, hi int) {
			if h > s.fatNodes {
				return
			}
			k := s.inorderIndex(h)
			if k <= lo || k >= hi {
				t.Fatalf("p=%d: node %d in-order %d outside (%d,%d)", p, h, k, lo, hi)
			}
			checkBST(2*h, lo, k)
			checkBST(2*h+1, k, hi)
		}
		checkBST(1, 0, s.fatNodes+1)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{10, 2}, {3, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(n=%d, p=%d) did not panic", tc.n, tc.p)
				}
			}()
			var a model.Arena
			New(&a, tc.n, tc.p)
		}()
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	keys := randKeys(64, 13)
	_, m1, met1 := runLCSort(t, keys, 16, 21, nil)
	_, m2, met2 := runLCSort(t, keys, 16, 21, nil)
	if met1.Ops != met2.Ops || met1.Steps != met2.Steps {
		t.Errorf("same seed, different cost: ops %d/%d steps %d/%d",
			met1.Ops, met2.Ops, met1.Steps, met2.Steps)
	}
	for i, v := range m1.Memory() {
		if m2.Memory()[i] != v {
			t.Fatalf("memory diverged at %d", i)
		}
	}
}

package pram

import (
	"sort"
	"testing"

	"wfsort/internal/core"
	"wfsort/internal/model"
	"wfsort/internal/xrand"
)

// TestSortScheduleMatrix runs the full Section 2 sort under every
// scheduler the simulator offers, across several seeds, and checks two
// properties per cell:
//
//   - correctness: the computed ranks equal the true stable ranking no
//     matter how adversarial the schedule is (wait-freedom means the
//     schedule can change costs, never results);
//   - determinism: re-running the same (scheduler, seed) cell from a
//     fresh scheduler instance reproduces the step count and operation
//     count exactly — the property the golden tests and EXPERIMENTS.md
//     tables rest on.
func TestSortScheduleMatrix(t *testing.T) {
	const (
		n = 96
		p = 16
	)
	schedulers := []struct {
		name string
		make func(seed uint64) Scheduler
	}{
		{"synchronous", func(uint64) Scheduler { return Synchronous() }},
		{"priority", func(uint64) Scheduler { return PriorityOrder() }},
		{"roundrobin1", func(uint64) Scheduler { return RoundRobin(1) }},
		{"roundrobin3", func(uint64) Scheduler { return RoundRobin(3) }},
		{"randomsubset", func(uint64) Scheduler { return RandomSubset(0.5) }},
		{"contention", func(uint64) Scheduler { return NewContentionAdversary() }},
		{"crashes", func(seed uint64) Scheduler {
			// Crash a third of the processors mid-run. Processor 0 is
			// kept alive as in the E10 experiment so at least one
			// worker always survives to finish the sort.
			crashes := RandomCrashes(p, 0.33, 600, seed)
			kept := crashes[:0]
			for _, c := range crashes {
				if c.PID != 0 {
					kept = append(kept, c)
				}
			}
			return WithCrashes(Synchronous(), kept)
		}},
	}
	for _, alloc := range []core.Alloc{core.AllocWAT, core.AllocRandomized} {
		for _, sc := range schedulers {
			for seed := uint64(1); seed <= 3; seed++ {
				name := allocName(alloc) + "/" + sc.name + "/seed" + string(rune('0'+seed))
				t.Run(name, func(t *testing.T) {
					keys := matrixKeys(n, seed)
					want := trueRanks(keys)
					first := runMatrixCell(t, alloc, sc.make(seed), keys, p, seed)
					second := runMatrixCell(t, alloc, sc.make(seed), keys, p, seed)
					for i := range want {
						if first.ranks[i] != want[i] {
							t.Fatalf("element %d: rank %d, want %d", i+1, first.ranks[i], want[i])
						}
					}
					if first.steps != second.steps || first.ops != second.ops {
						t.Fatalf("nondeterministic cell: run1 steps=%d ops=%d, run2 steps=%d ops=%d",
							first.steps, first.ops, second.steps, second.ops)
					}
				})
			}
		}
	}
}

func allocName(a core.Alloc) string {
	if a == core.AllocWAT {
		return "det"
	}
	return "rand"
}

func matrixKeys(n int, seed uint64) []int {
	rng := xrand.New(seed * 1021)
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(n / 3) // duplicates exercise the stable tie-break
	}
	return keys
}

// trueRanks computes each element's expected 1-based rank under the
// sort's (key, index) ordering.
func trueRanks(keys []int) []int {
	ids := make([]int, len(keys))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return keys[ids[a]] < keys[ids[b]] })
	ranks := make([]int, len(keys))
	for pos, i := range ids {
		ranks[i] = pos + 1
	}
	return ranks
}

type matrixRun struct {
	ranks []int
	steps int64
	ops   int64
}

func runMatrixCell(t *testing.T, alloc core.Alloc, sched Scheduler, keys []int, p int, seed uint64) matrixRun {
	t.Helper()
	n := len(keys)
	less := func(i, j int) bool {
		a, b := keys[i-1], keys[j-1]
		if a != b {
			return a < b
		}
		return i < j
	}
	var a model.Arena
	s := core.NewSorter(&a, n, alloc)
	m := New(Config{P: p, Mem: a.Size(), Seed: seed, Sched: sched, Less: less})
	s.Seed(m.Memory(), s.N())
	met, err := m.Run(s.Program())
	if err != nil {
		t.Fatal(err)
	}
	return matrixRun{ranks: s.Places(m.Memory()), steps: met.Steps, ops: met.Ops}
}

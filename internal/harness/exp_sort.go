package harness

import (
	"math"

	"wfsort/internal/core"
	"wfsort/internal/model"
	"wfsort/internal/pram"
)

// E3BuildTree measures phase 1 in isolation: correctness of the pivot
// tree under concurrency and the per-processor work bound (Lemma 2.4:
// a single insertion loops at most N−1 times; Lemma 2.5: the tree is a
// correct BST).
func E3BuildTree(o Options) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "phase-1 build_tree work, P = N, random input",
		Claim: "Lemma 2.4/2.5: each insertion is wait-free (≤ N−1 loops) and the tree is a sorted BST",
		Header: []string{
			"N=P", "max ops/proc", "total ops", "ops per element", "steps", "sorted?",
		},
	}
	for _, n := range sizes(o, []int{64, 256, 1024, 4096}, 1024) {
		keys := MakeKeys(InputRandom, n, o.Seed+uint64(n))
		var a model.Arena
		s := core.NewSorter(&a, n, core.AllocWAT)
		m := pram.New(pram.Config{P: n, Mem: a.Size(), Seed: o.Seed, Less: LessFor(keys)})
		s.Seed(m.Memory(), n)
		met, err := m.Run(func(p model.Proc) {
			p.Phase("build")
			s.BuildPhase(p)
		})
		if err != nil {
			return nil, err
		}
		var maxOps int64
		for _, ops := range m.OpsPerProc() {
			if ops > maxOps {
				maxOps = ops
			}
		}
		t.AddRow(n, maxOps, met.Ops, float64(met.Ops)/float64(n), met.Steps,
			s.TreeIsSortedBST(m.Memory(), LessFor(keys)))
	}
	t.Notef("ops per element stays near 2·depth ≈ O(log N); the N−1 loop bound is a worst case never approached on random input")
	return t, nil
}

// E4Phases23 measures phases 2 and 3 in isolation (Lemma 2.6: both are
// wait-free and require O(N) operations).
func E4Phases23(o Options) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "phases 2-3 work, P = N, random input",
		Claim: "Lemma 2.6: tree_sum and find_place are wait-free, O(N) operations",
		Header: []string{
			"N=P", "sum ops", "place ops", "sum ops/N", "place ops/N", "max ops/proc",
		},
	}
	for _, n := range sizes(o, []int{64, 256, 1024, 4096}, 1024) {
		keys := MakeKeys(InputRandom, n, o.Seed+uint64(n))
		var a model.Arena
		s := core.NewSorter(&a, n, core.AllocWAT)
		m := pram.New(pram.Config{P: n, Mem: a.Size(), Seed: o.Seed, Less: LessFor(keys)})
		s.Seed(m.Memory(), n)
		met, err := m.Run(s.Program())
		if err != nil {
			return nil, err
		}
		sum := met.ByPhase["2:sum"]
		place := met.ByPhase["3:place"]
		var maxOps int64
		for _, ops := range m.OpsPerProc() {
			if ops > maxOps {
				maxOps = ops
			}
		}
		t.AddRow(n, sum.Ops, place.Ops,
			float64(sum.Ops)/float64(n), float64(place.Ops)/float64(n), maxOps)
	}
	t.Notef("per-processor work is bounded; aggregate phase work grows linearly in N as Lemma 2.6 allows")
	return t, nil
}

// E5SortTime measures the full sort's running time: steps vs N at
// P = N (claim: O(log N)), and steps vs P at fixed N (claim:
// O(N log N / P)).
func E5SortTime(o Options) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "sort steps: N-sweep at P=N, then P-sweep at fixed N",
		Claim: "Lemmas 2.7/2.8: O(N log N / P) w.h.p., i.e. O(log N) when P = N",
		Header: []string{
			"N", "P", "steps", "steps/log2(N)", "total ops", "correct?",
		},
	}
	var xs, ys []float64
	for _, n := range sizes(o, []int{64, 256, 1024, 4096, 16384}, 1024) {
		keys := MakeKeys(InputRandom, n, o.Seed+uint64(n))
		res, err := RunCoreSort(keys, n, core.AllocWAT, o.Seed, nil)
		if err != nil {
			return nil, err
		}
		logN := math.Log2(float64(n))
		t.AddRow(n, n, res.Metrics.Steps, float64(res.Metrics.Steps)/logN, res.Metrics.Ops, res.Correct)
		xs = append(xs, float64(n))
		ys = append(ys, float64(res.Metrics.Steps))
	}
	t.Notef("P=N sweep: steps grow %+.1f per doubling of N — logarithmic, not polynomial (power-law exponent %.2f)",
		FitLogSlope(xs, ys), expOf(xs, ys))

	nFix := 4096
	if o.Quick {
		nFix = 1024
	}
	keys := MakeKeys(InputRandom, nFix, o.Seed)
	var ps, steps []float64
	for _, p := range sizes(o, []int{1, 4, 16, 64, 256, 1024, 4096}, 1024) {
		if p > nFix {
			continue
		}
		res, err := RunCoreSort(keys, p, core.AllocWAT, o.Seed, nil)
		if err != nil {
			return nil, err
		}
		logN := math.Log2(float64(nFix))
		t.AddRow(nFix, p, res.Metrics.Steps, float64(res.Metrics.Steps)/logN, res.Metrics.Ops, res.Correct)
		ps = append(ps, float64(p))
		steps = append(steps, float64(res.Metrics.Steps))
	}
	e, _ := FitPowerLaw(ps, steps)
	t.Notef("P-sweep at N=%d: steps ∝ P^%.2f — the O(N log N / P) speedup (ideal exponent −1)", nFix, e)
	return t, nil
}

// E12TreeDepth measures the pivot tree's depth for every combination of
// input order and phase-1 allocation (Lemma 2.8 and the §2.3
// randomized allocation: depth O(log N) w.h.p. — for any input order
// if allocation is randomized).
func E12TreeDepth(o Options) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "pivot-tree depth by input order, allocation and P",
		Claim: "Lemma 2.8/§2.3: depth O(log N) w.h.p.; randomized allocation removes the random-input assumption",
		Header: []string{
			"N", "P", "input", "alloc", "depth", "mean depth", "depth/log2(N)", "ops/key", "correct?",
		},
	}
	addRow := func(n, p int, input, alloc string, res SortResult) {
		t.AddRow(n, p, input, alloc, res.Depth, res.MeanDepth,
			float64(res.Depth)/math.Log2(float64(n)), float64(res.Metrics.Ops)/float64(n), res.Correct)
	}
	allocName := map[core.Alloc]string{core.AllocWAT: "wat", core.AllocRandomized: "randomized"}
	for _, n := range sizes(o, []int{256, 1024, 4096}, 1024) {
		for _, input := range []InputKind{InputRandom, InputSorted, InputReversed} {
			for _, alloc := range []core.Alloc{core.AllocWAT, core.AllocRandomized} {
				keys := MakeKeys(input, n, o.Seed+uint64(n))
				res, err := RunCoreSort(keys, n, alloc, o.Seed, nil)
				if err != nil {
					return nil, err
				}
				addRow(n, n, input.String(), allocName[alloc], res)
			}
		}
	}
	// The degenerate case the §2.3 randomization exists for: with few
	// processors, deterministic allocation inserts a sorted input in
	// index order, producing a path-shaped tree of depth ~N; randomized
	// allocation keeps it logarithmic.
	nPath := 1024
	if o.Quick {
		nPath = 256
	}
	keys := MakeKeys(InputSorted, nPath, o.Seed)
	for _, alloc := range []core.Alloc{core.AllocWAT, core.AllocRandomized} {
		res, err := RunCoreSort(keys, 1, alloc, o.Seed, nil)
		if err != nil {
			return nil, err
		}
		addRow(nPath, 1, "sorted", allocName[alloc], res)
	}
	// The native fast path the library runs by default: LayoutSharded's
	// block claims and sharded counters on real goroutines, where a
	// schedule is not reproducible but the depth bound must still hold.
	for _, n := range sizes(o, []int{1 << 14, 1 << 18}, 1<<14) {
		for _, input := range []InputKind{InputRandom, InputSorted, InputReversed} {
			res, err := RunShardedNativeSort(MakeKeys(input, n, o.Seed), 2, o.Seed)
			if err != nil {
				return nil, err
			}
			addRow(n, 2, input.String(), "randomized, sharded (native)", res)
		}
	}
	t.Notef("at P = N, concurrent insertion already randomizes arrival order, so even deterministic allocation stays shallow; the true degenerate case is few processors + sorted input, where deterministic allocation builds a depth-N path (the P=1 row pair) and §2.3's randomized allocation restores O(log N)")
	t.Notef("the native rows run the LayoutSharded tuning (128-element claim blocks) at P=2 on goroutines; ops/key there counts the shared-memory operations of every phase the workers run, and mean depth stays a small multiple of log2 N on sorted input because every block is inserted in shuffled order")
	return t, nil
}

func expOf(xs, ys []float64) float64 {
	e, _ := FitPowerLaw(xs, ys)
	return e
}

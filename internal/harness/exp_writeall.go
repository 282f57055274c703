package harness

import (
	"math"

	"wfsort/internal/model"
	"wfsort/internal/pram"
	"wfsort/internal/wat"
	"wfsort/internal/writeall"
)

// E1NextElement measures the cost of a single next_element call
// (Lemma 2.1: wait-free, O(log N) operations). Two worst cases are
// probed: a descent through a fresh tree from the root's sibling, and a
// full climb after completing the last leaf of an otherwise-done tree.
func E1NextElement(o Options) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "single next_element cost vs tree size",
		Claim: "Lemma 2.1: next_element completes in O(log N) steps",
		Header: []string{
			"N", "log2(N)", "descent ops", "climb ops",
		},
	}
	var xs, descents, climbs []float64
	for _, n := range sizes(o, []int{16, 64, 256, 1024, 4096, 16384, 65536}, 1024) {
		// Full climb + full descent: the left half of the leaves is
		// done; completing its last leaf climbs to just below the root
		// and then descends the entire untouched right half.
		descentOps, err := nextElementCost(n, markHalfDone)
		if err != nil {
			return nil, err
		}
		// Full climb to the root: everything else is done; completing
		// the last leaf climbs all the way and returns NoWork.
		climbOps, err := nextElementCost(n, markAllButFirstDone)
		if err != nil {
			return nil, err
		}

		logN := math.Log2(float64(n))
		t.AddRow(n, logN, descentOps, climbOps)
		xs = append(xs, float64(n))
		descents = append(descents, float64(descentOps))
		climbs = append(climbs, float64(climbOps))
	}
	dSlope := FitLogSlope(xs, descents)
	cSlope := FitLogSlope(xs, climbs)
	t.Notef("ops per doubling of N: climb+descend %+.2f, climb %+.2f — O(log N) with small constants (Lemma 2.1)", dSlope, cSlope)
	return t, nil
}

// nextElementCost builds an n-leaf WAT, lets prepare mark completed
// regions host-side, and returns the operation count of one
// next_element call from the last marked leaf.
func nextElementCost(n int, prepare func(mem []model.Word, w *wat.WAT, n int) int) (int64, error) {
	var a model.Arena
	w := wat.New(&a, n)
	m := pram.New(pram.Config{P: 1, Mem: a.Size()})
	w.Seed(m.Memory(), n)
	start := prepare(m.Memory(), w, n)
	met, err := m.Run(func(p model.Proc) {
		w.NextElement(p, start)
	})
	if err != nil {
		return 0, err
	}
	return met.Ops, nil
}

// markHalfDone marks leaves 0..n/2-1 (and their completed inner nodes)
// DONE and returns the last done leaf — the climb-then-descend worst
// case.
func markHalfDone(mem []model.Word, w *wat.WAT, n int) int {
	half := max(n/2, 1)
	for j := 0; j < half-1; j++ {
		mem[w.NodeAddr(w.LeafNode(j))] = model.Done
	}
	markCompletedInner(mem, w)
	return w.LeafNode(half - 1)
}

// markAllButFirstDone marks every leaf except leaf 0 DONE — the full
// climb worst case.
func markAllButFirstDone(mem []model.Word, w *wat.WAT, n int) int {
	for j := 1; j < n; j++ {
		mem[w.NodeAddr(w.LeafNode(j))] = model.Done
	}
	markCompletedInner(mem, w)
	return w.LeafNode(0)
}

func markCompletedInner(mem []model.Word, w *wat.WAT) {
	for node := w.Leaves() - 1; node >= 1; node-- {
		if mem[w.NodeAddr(2*node)] == model.Done && mem[w.NodeAddr(2*node+1)] == model.Done {
			mem[w.NodeAddr(node)] = model.Done
		}
	}
}

// E2WriteAll measures write-all completion with P = N for each
// allocation strategy (Lemma 2.3 for the WAT, Lemma 3.1 for the
// LC-WAT; the static strategy is the no-overhead floor).
func E2WriteAll(o Options) (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "write-all completion steps, P = N",
		Claim: "Lemma 2.3: WAT completes in O(K + log N); Lemma 3.1: LC-WAT in O(log P) w.h.p.",
		Header: []string{
			"N=P", "static steps", "wat steps", "lcwat steps", "wat maxcont", "lcwat maxcont",
		},
	}
	var xs, watSteps, lcSteps []float64
	for _, n := range sizes(o, []int{16, 64, 256, 1024, 4096}, 1024) {
		row := make(map[writeall.Variant]writeall.Result)
		for _, v := range []writeall.Variant{writeall.Static, writeall.WAT, writeall.LCWAT} {
			res, err := writeall.Run(writeall.Config{Variant: v, N: n, P: n, Seed: o.Seed + uint64(n)})
			if err != nil {
				return nil, err
			}
			if !res.Complete {
				t.Notef("%v at N=%d left %d cells unwritten (BUG)", v, n, res.Missing)
			}
			row[v] = res
		}
		t.AddRow(n,
			row[writeall.Static].Metrics.Steps,
			row[writeall.WAT].Metrics.Steps,
			row[writeall.LCWAT].Metrics.Steps,
			row[writeall.WAT].Metrics.MaxContention,
			row[writeall.LCWAT].Metrics.MaxContention,
		)
		xs = append(xs, float64(n))
		watSteps = append(watSteps, float64(row[writeall.WAT].Metrics.Steps))
		lcSteps = append(lcSteps, float64(row[writeall.LCWAT].Metrics.Steps))
	}
	t.Notef("steps per doubling of N: wat %+.2f, lcwat %+.2f — both logarithmic growth",
		FitLogSlope(xs, watSteps), FitLogSlope(xs, lcSteps))
	t.Notef("wat contention equals P at the root; lcwat stays polylogarithmic — the §3.1 motivation")
	return t, nil
}

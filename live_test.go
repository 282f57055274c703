package wfsort

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"wfsort/internal/core"
	"wfsort/internal/model"
	"wfsort/internal/pool"
)

// liveClass is the size class the live-count tests fill partially.
const liveClass = 4096

type liveRec struct{ key, pos int }

// liveInput returns n records of the given key kind, each tagged with
// its input position so stability is checkable.
func liveInput(kind string, n int, rng *rand.Rand) []liveRec {
	recs := make([]liveRec, n)
	for i := range recs {
		k := 7
		switch kind {
		case "uniform":
			k = rng.Intn(n/2 + 1) // duplicates on purpose
		case "sorted":
			k = i
		}
		recs[i] = liveRec{key: k, pos: i}
	}
	return recs
}

func stableRef(recs []liveRec) []liveRec {
	want := slices.Clone(recs)
	slices.SortStableFunc(want, func(a, b liveRec) int { return a.key - b.key })
	return want
}

// runLive sorts recs by key on a context borrowed from p directly, as
// the facades do (Get seeds it at len(recs), runPooled runs it), and
// checks the run before the context goes back: every rank matches the
// stable order and, for the §2 sorter, Progress and the install
// counters read exactly n and every pad row past n still has empty
// child, size and place words. It returns the context for identity
// checks.
func runLive(t *testing.T, p *Pool, recs []liveRec) *pool.Ctx {
	t.Helper()
	n := len(recs)
	pc, err := p.ctxs.Get(n)
	if err != nil {
		t.Fatal(err)
	}
	defer p.putCtx(pc)
	less := func(i, j int) bool {
		a, b := recs[i-1].key, recs[j-1].key
		return a < b || (a == b && i < j)
	}
	if err := p.runPooled(context.Background(), pc, n, less); err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	for r, rec := range stableRef(recs) {
		if got := pc.Places[rec.pos]; got != r+1 {
			t.Fatalf("n=%d: element %d ranked %d, want %d", n, rec.pos+1, got, r+1)
		}
	}
	s, ok := pc.Runner.(*core.Sorter)
	if !ok {
		return pc // LowContention sorts at capacity behind padLess
	}
	if sized, placed := s.Progress(pc.Mem); sized != n || placed != n {
		t.Errorf("n=%d: Progress = (%d, %d), want (%d, %d)", n, sized, placed, n, n)
	}
	if sum, place := s.CounterTotals(pc.Mem); sum != model.Word(n) || place != model.Word(n) {
		t.Errorf("n=%d: CounterTotals = (%d, %d), want (%d, %d)", n, sum, place, n, n)
	}
	for i := n + 1; i <= pc.Capacity; i++ {
		for _, a := range []int{s.ChildAddr(core.Small, i), s.ChildAddr(core.Big, i), s.SizeAddr(i), s.PlaceAddr(i)} {
			if pc.Mem[a] != model.Empty {
				t.Fatalf("n=%d: pad row %d was written", n, i)
			}
		}
	}
	return pc
}

// TestPooledLiveCount sorts requests at four fill ratios of one size
// class — just over half, 0.55, one short and full — with uniform,
// sorted and all-equal keys, through both Sorter and KeyedSorter, and
// checks every output against a stable reference. A direct run on the
// same pool then checks the kernel touched only the request's own rows.
// LowContention, which still pads to class capacity, must give the
// same outputs.
func TestPooledLiveCount(t *testing.T) {
	for _, v := range []Variant{Randomized, LowContention} {
		t.Run(v.String(), func(t *testing.T) { testPooledLiveCount(t, v) })
	}
}

func testPooledLiveCount(t *testing.T, v Variant) {
	p, err := NewPool(WithWorkers(4), WithVariant(v))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cmpS, err := NewSorterFunc[liveRec](func(a, b liveRec) bool { return a.key < b.key }, WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	keyS, err := NewKeyedSorter[liveRec](func(r liveRec) uint64 { return uint64(r.key) }, WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	sorters := []struct {
		name string
		sort func([]liveRec) error
	}{{"Sorter", cmpS.Sort}, {"KeyedSorter", keyS.Sort}}
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{liveClass/2 + 1, liveClass * 55 / 100, liveClass - 1, liveClass} {
		for _, kind := range []string{"uniform", "sorted", "equal"} {
			data := liveInput(kind, n, rng)
			want := stableRef(data)
			for _, s := range sorters {
				got := slices.Clone(data)
				if err := s.sort(got); err != nil {
					t.Fatalf("%s n=%d %s: %v", s.name, n, kind, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d %s: output is not the stable sort of the input", s.name, n, kind)
				}
			}
			runLive(t, p, data)
		}
	}
	if b := p.Stats().Builds; b > 1 {
		t.Errorf("%d contexts built for one class, want 1", b)
	}
}

// TestPooledLiveCountResidue runs one pooled context through live
// counts C−1, C/2+1 and C: a count, a WAT mark or a counter shard left
// over from a larger run shows up as a wrong rank, a written pad row or
// a miscount in the next, smaller one.
func TestPooledLiveCountResidue(t *testing.T) {
	p, err := NewPool(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rng := rand.New(rand.NewSource(16))
	var first *pool.Ctx
	for _, n := range []int{liveClass - 1, liveClass/2 + 1, liveClass} {
		pc := runLive(t, p, liveInput("uniform", n, rng))
		if first == nil {
			first = pc
		} else if pc != first {
			t.Fatalf("n=%d ran on a different context", n)
		}
	}
}

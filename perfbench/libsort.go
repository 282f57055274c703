package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"wfsort"
	"wfsort/internal/model"
	"wfsort/internal/obs"
)

// lib-sort: one in-process caller runs a fixed seeded list of pooled
// sorts, half through Sorter[int64] (comparator, copy-in) and half
// through KeyedSorter over 64-byte records keyed by an int64 field.

// Input kinds. The order is the order of the sort.ns_per_key metrics.
var kindNames = []string{"uniform", "dup", "sorted", "reversed"}

// rec is a 64-byte record sorted by Key; Pay[0] is a function of Key,
// so the check can tell a record whose payload was left behind.
type rec struct {
	Key int64
	Pay [7]int64
}

func payloadOf(k int64) int64 { return int64(splitmix64(uint64(k) ^ 0x5bd1e995)) }

type libJob struct {
	n, kind, off int
	keyed        bool
	want         digest
}

type libBench struct {
	minN, maxN int
	base       [4][]int64 // per kind; a job sorts base[kind][off:off+n]
	jobs       []libJob
	phaseJobs  int // jobs whose keys the traced run also sorts one-shot under an observer
}

// newLibBench draws count jobs. Every block of eight jobs holds each
// (kind, API) pair once. Each pair's jobs cycle through the octaves of
// [minN, maxN], which are the pool's size classes, and sit at the
// midpoints of equal strata within an octave. The list itself (order
// and sizes) is the same for every seed; the seed draws the keys and
// the windows the jobs read. The pool seeds its randomized sort from a
// per-sort sequence number, so a fixed order also gives each job the
// same coin flips on every seed, and the sorted and reversed jobs,
// which fill the tail, cost the same on every seed.
func newLibBench(seed uint64, count, minN, maxN int) *libBench {
	rng := rand.New(rand.NewPCG(seed, 0x11b))
	order := rand.New(rand.NewPCG(1, 0x11b))
	b := &libBench{minN: minN, maxN: maxN}
	slack := maxN / 4
	for k := range b.base {
		b.base[k] = genKind(rng, k, maxN+slack)
	}
	pairs := balanced(order, count, 8)
	octaves := int(math.Round(math.Log2(float64(maxN) / float64(minN))))
	sizes := make([][]int, 8)
	for c := range sizes {
		m := 0
		for _, p := range pairs {
			if p == c {
				m++
			}
		}
		for _, u := range stratified(octaves, m, c) {
			sizes[c] = append(sizes[c], int(float64(minN)*math.Exp2(u)))
		}
		order.Shuffle(m, func(i, j int) { sizes[c][i], sizes[c][j] = sizes[c][j], sizes[c][i] })
	}
	for _, c := range pairs {
		j := libJob{n: sizes[c][0], kind: c % 4, keyed: c >= 4, off: rng.IntN(slack + 1)}
		sizes[c] = sizes[c][1:]
		j.want = digestOf(b.keys(j))
		b.jobs = append(b.jobs, j)
	}
	b.phaseJobs = min(len(b.jobs), 8)
	return b
}

// balanced returns count classes in [0, k): each block of k holds every
// class once, in a seeded order.
func balanced(rng *rand.Rand, count, k int) []int {
	out := make([]int, 0, count)
	for len(out) < count {
		out = append(out, rng.Perm(k)...)
	}
	return out[:count]
}

// stratified returns m values in [0, units): value j lies in unit
// (j+shift) mod units, and the values sharing a unit sit at the
// midpoints of equal strata of it. The sizes drawn from them are the
// same for every seed, so a quantile cannot move between seeds because
// one list happened to hold more costly sizes than another.
func stratified(units, m, shift int) []float64 {
	per := make([]int, units)
	for j := 0; j < m; j++ {
		per[(j+shift)%units]++
	}
	var out []float64
	for u, r := range per {
		for i := 0; i < r; i++ {
			out = append(out, float64(u)+(float64(i)+0.5)/float64(r))
		}
	}
	return out
}

func genKind(rng *rand.Rand, kind, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Uint64())
		if kind == 1 { // few distinct: 256 values spread over the range
			out[i] = int64(rng.IntN(256)-128) * 0x10000000001
		}
	}
	switch kind {
	case 2:
		slices.Sort(out)
	case 3:
		slices.Sort(out)
		slices.Reverse(out)
	}
	return out
}

func (b *libBench) keys(j libJob) []int64 { return b.base[j.kind][j.off : j.off+j.n] }

// libSUT is the started system: one pool shared by both sorters.
type libSUT struct {
	b      *libBench
	pool   *wfsort.Pool
	sorter *wfsort.Sorter[int64]
	keyed  *wfsort.KeyedSorter[rec]
	ints   []int64 // work buffers, refilled before every call
	recs   []rec
	ref    []int64
	stats0 wfsort.PoolStats
}

func (b *libBench) start(*recorder) (sut, error) {
	pool, err := wfsort.NewPool()
	if err != nil {
		return nil, err
	}
	s := &libSUT{b: b, pool: pool}
	if s.sorter, err = wfsort.NewSorter[int64](wfsort.WithPool(pool)); err == nil {
		s.keyed, err = wfsort.NewKeyedSorter(func(r rec) uint64 { return wfsort.Int64Key(r.Key) }, wfsort.WithPool(pool))
	}
	if err != nil {
		pool.Close()
		return nil, err
	}
	s.ints, s.recs, s.ref = make([]int64, b.maxN), make([]rec, b.maxN), make([]int64, b.maxN)
	// Warm-up: one sort per size class and API builds every pool
	// context the job list will borrow.
	for c := b.minN; c/2 < b.maxN; c *= 2 {
		n := min(c, b.maxN)
		j := libJob{n: n, kind: 0, want: digestOf(b.base[0][:n])}
		for _, keyed := range []bool{false, true} {
			j.keyed = keyed
			if o, _, _ := s.call(context.Background(), j); o != outOK {
				s.close()
				return nil, fmt.Errorf("lib-sort warm-up sort of %d keys failed", n)
			}
		}
	}
	s.stats0 = pool.Stats()
	return s, nil
}

// call sorts job j's keys once through its API and checks the result.
// Refilling the work buffer is outside the timed interval, which
// starts at t0 and lasts ns.
func (s *libSUT) call(ctx context.Context, j libJob) (o outcome, t0 time.Time, ns int64) {
	src := s.b.keys(j)
	var err error
	if j.keyed {
		data := s.recs[:j.n]
		for i, k := range src {
			data[i] = rec{Key: k, Pay: [7]int64{payloadOf(k)}}
		}
		t0 = time.Now()
		err = s.keyed.SortContext(ctx, data)
		ns = time.Since(t0).Nanoseconds()
		out := s.ints[:j.n]
		for i := range data {
			out[i] = data[i].Key
			if data[i].Pay[0] != payloadOf(data[i].Key) {
				return outWrong, t0, ns
			}
		}
	} else {
		data := s.ints[:j.n]
		copy(data, src)
		t0 = time.Now()
		err = s.sorter.SortContext(ctx, data)
		ns = time.Since(t0).Nanoseconds()
	}
	if err != nil {
		return outFailed, t0, ns
	}
	if !sortedAs(s.ints[:j.n], j.want) {
		return outWrong, t0, ns
	}
	return outOK, t0, ns
}

func (s *libSUT) run(rec *recorder) (*tally, error) {
	t := &tally{}
	for ji, j := range s.b.jobs {
		ctx := context.Background()
		var tr wfsort.SortTrace
		if rec != nil {
			ctx = wfsort.WithSortTrace(ctx, &tr)
		}
		var o outcome
		var start time.Time
		var ns int64
		t.measureAlloc(j.n, func() { o, start, ns = s.call(ctx, j) })
		t.add(o, j.n, ns)
		t.wallNs += ns
		if rec != nil {
			at := start.Sub(rec.t0).Nanoseconds()
			name := "wfsort.sorter"
			if j.keyed {
				name = "wfsort.keyed"
			}
			rec.add(span{Name: name, Req: fmt.Sprintf("ls-%d", ji), Key: kindNames[j.kind],
				Start: at, End: at + ns, InnerNs: tr.RunNs, N: j.n})
		}
		if o != outOK {
			continue
		}
		ref := s.ref[:j.n]
		copy(ref, s.b.keys(j))
		t0 := time.Now()
		slices.Sort(ref)
		t.refNs += time.Since(t0).Nanoseconds()
	}
	return t, nil
}

func (s *libSUT) layers(rec *recorder, add func(string, float64)) {
	var refNs, refKeys float64
	for _, j := range s.b.jobs {
		ref := s.ref[:j.n]
		copy(ref, s.b.keys(j))
		t0 := time.Now()
		slices.Sort(ref)
		refNs += float64(time.Since(t0).Nanoseconds())
		refKeys += float64(j.n)
	}
	add("ref.slices_sort_ns_per_key", refNs/refKeys)

	var ph phaseCost
	for _, j := range s.b.jobs[:s.b.phaseJobs] {
		ph.measure(s.b.keys(j))
	}
	add("core.build_ns_per_key", ph.ns["1:build"]/ph.keys)
	add("core.sum_ns_per_key", ph.ns["2:sum"]/ph.keys)
	add("core.place_ns_per_key", ph.ns["3:place"]/ph.keys)
	add("core.shuffle_ns_per_key", ph.shuffleNs/ph.keys)
	add("core.ops_per_key", ph.ops/ph.keys)

	var kindNs, kindKeys [4]float64
	var runNs, facade, apiKeys [2]float64
	for api, name := range []string{"wfsort.sorter", "wfsort.keyed"} {
		for _, sp := range rec.named(name) {
			k := slices.Index(kindNames, sp.Key)
			kindNs[k] += float64(sp.dur())
			kindKeys[k] += float64(sp.N)
			runNs[api] += float64(sp.InnerNs)
			facade[api] += float64(sp.dur() - sp.InnerNs)
			apiKeys[api] += float64(sp.N)
		}
	}
	for k, name := range kindNames {
		add("sort.ns_per_key."+name, kindNs[k]/kindKeys[k])
	}
	add("native.run_ns_per_key", (runNs[0]+runNs[1])/(apiKeys[0]+apiKeys[1]))
	add("wfsort.facade_ns_per_key.sorter", facade[0]/apiKeys[0])
	add("wfsort.facade_ns_per_key.keyed", facade[1]/apiKeys[1])

	st := s.pool.Stats()
	add("pool.hit_frac", float64(st.Hits-s.stats0.Hits)/float64(st.Gets-s.stats0.Gets))
	add("pool.builds", float64(st.Builds))
}

func (s *libSUT) close() { s.pool.Close() }

// phaseCost accumulates the kernel's phase costs from one-shot sorts
// under a wfsort observer: the mean worker time in each phase, the
// host-side scatter after the last worker ends, and the operation
// count.
type phaseCost struct {
	ns             map[string]float64
	shuffleNs, ops float64
	keys           float64
}

func (p *phaseCost) measure(keys []int64) {
	if p.ns == nil {
		p.ns = map[string]float64{}
	}
	data := slices.Clone(keys)
	o := wfsort.NewObserver()
	t0 := time.Now()
	err := wfsort.Sort(data, wfsort.WithObserver(o))
	end := time.Since(t0).Nanoseconds()
	if err != nil || !sortedAs(data, digestOf(keys)) {
		// A failed probe leaves every phase metric NaN, which fails the run.
		p.keys = math.NaN()
		return
	}
	var m model.Metrics
	o.MergeInto(&m)
	for name, pm := range m.ByPhase {
		p.ops += float64(pm.Ops)
		if pm.Latency != nil && pm.Latency.Count > 0 {
			p.ns[name] += float64(pm.Latency.Sum) / float64(pm.Latency.Count)
		}
	}
	var lastEnd int64
	for _, inc := range o.Incarnations() {
		for _, ev := range inc.Events() {
			if ev.Kind == obs.EvEnd {
				lastEnd = max(lastEnd, ev.TS)
			}
		}
	}
	p.shuffleNs += float64(end - lastEnd)
	p.keys += float64(len(keys))
}

package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"wfsort"
)

// The native gate times the real-goroutine sort, one cell per
// (layout, workers, size), named "<layout>[+obs]/p<P>/n<N>" in
// elems/s. Its rules:
//
//   - comparable hosts: geomean absolute throughput within 10% of the
//     baseline;
//   - any host: geomean sharded/flat ratio — the speedup the
//     contention-sharded layout exists to deliver, machine-relative by
//     construction — within 10% of the baseline's;
//   - with -observed, any host, in-run: geomean observed/unobserved
//     throughput >= 0.90 (the observer hook is sold as near-free), and
//     the same floor on the trace plane's serving overhead
//     (observed.go).
func nativeRules(bool) []rule {
	return []rule{
		{kind: drift, name: "throughput drift", num: `/p\d+/n\d+$`, bound: 1 - tolerance},
		{kind: ratioDrift, name: "sharded/flat ratio drift", num: `^sharded/(.*)$`, den: `flat/${1}`, bound: 1 - tolerance},
		{kind: inRun, name: "observer overhead", num: `^sharded\+obs/(.*)$`, den: `sharded/${1}`, bound: 1 - tolerance},
		{kind: inRun, name: "trace plane overhead", num: `^serve\+trace/(.*)$`, den: `serve/${1}`, bound: 1 - tolerance},
	}
}

// cellSpec names one measurement to take.
type cellSpec struct {
	layout   wfsort.Layout
	p, n     int
	observed bool
}

func (c cellSpec) String() string {
	obs := ""
	if c.observed {
		obs = "+obs"
	}
	return fmt.Sprintf("%s%s/p%d/n%d", c.layout, obs, c.p, c.n)
}

// matrix lists the cells to measure. The full matrix is every layout
// at P ∈ {1, 4, 8, GOMAXPROCS} and N ∈ {64Ki, 256Ki, 1Mi}; quick mode
// keeps one small and one medium size at two worker counts for the
// sharded and flat layouts only. With observed, every sharded cell is
// doubled with an observer-installed twin for the overhead gate.
func matrix(quick, observed bool) []cellSpec {
	workers := []int{1, 4, 8}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 && g != 8 {
		workers = append(workers, g)
	}
	sizes := []int{1 << 16, 1 << 18, 1 << 20}
	layouts := wfsort.Layouts()
	if quick {
		workers = []int{4, runtime.GOMAXPROCS(0)}
		if workers[0] == workers[1] {
			workers = workers[:1]
		}
		sizes = []int{1 << 14, 1 << 16}
		layouts = []wfsort.Layout{wfsort.LayoutSharded, wfsort.LayoutFlat}
	}
	var cells []cellSpec
	for _, l := range layouts {
		for _, p := range workers {
			for _, n := range sizes {
				cells = append(cells, cellSpec{l, p, n, false})
				if observed && l == wfsort.LayoutSharded {
					cells = append(cells, cellSpec{l, p, n, true})
				}
			}
		}
	}
	return cells
}

// measureNative times every cell of the matrix, then the trace-plane
// leg when observed. Sortedness of every run's output is verified — a
// wrong sort is an error no matter the mode.
func measureNative(w io.Writer, o opts) (*Report, error) {
	rep := newReport(o.quick, o.runs)
	for _, c := range matrix(o.quick, o.observed) {
		eps, err := measure(c, o.runs)
		if err != nil {
			return nil, err
		}
		rep.add(w, c.String(), eps, "elems/s")
	}
	if o.observed {
		if err := measureObservedServe(w, rep, o.quick, o.runs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measure times one cell in elems/s: the median over runs timed
// wall-clock sorts of a fixed pseudo-random permutation, after one
// untimed warmup. The garbage collector is flushed before each timed
// run so a previous cell's allocation debt cannot be charged to this
// one; the median (rather than the minimum) keeps a single lucky run
// in the baseline from making every later gate run look like a
// regression.
func measure(c cellSpec, runs int) (float64, error) {
	base := rand.New(rand.NewSource(int64(c.n) + int64(c.p))).Perm(c.n)
	data := make([]int, c.n)
	times := make([]time.Duration, 0, runs)
	for r := 0; r <= runs; r++ {
		copy(data, base)
		runtime.GC()
		opts := []wfsort.Option{wfsort.WithWorkers(c.p), wfsort.WithLayout(c.layout)}
		if c.observed {
			// One observer per run: like the runtime, an Observer
			// drives at most one sort.
			opts = append(opts, wfsort.WithObserver(wfsort.NewObserver()))
		}
		start := time.Now()
		err := wfsort.Sort(data, opts...)
		elapsed := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("%s/p%d/n%d: %w", c.layout, c.p, c.n, err)
		}
		if !sort.IntsAreSorted(data) {
			return 0, fmt.Errorf("%s/p%d/n%d: output not sorted", c.layout, c.p, c.n)
		}
		if r > 0 { // run 0 is the warmup
			times = append(times, elapsed)
		}
	}
	return float64(c.n) / median(times).Seconds(), nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"wfsort"
	"wfsort/internal/server"
)

// The serve gate measures the serving layer the way the native gate
// measures the fast path:
//
//   - pooled vs fresh sort throughput across a (P, N) matrix, cells
//     "pooled/p<P>/n<N>" and "fresh/p<P>/n<N>" in elems/s. The in-run
//     geomean pooled/fresh ratio must stay >= 1: context pooling
//     exists to beat rebuilding arenas, so the moment it stops paying
//     for itself the gate fails (any host, no baseline needed), and
//     its change vs the baseline must stay within 10% (any host).
//   - sortd request throughput, "serve/p4/n<reqs>" faultless and
//     "serve-crashhalf/p4/n<reqs>" with half the workers crash-stopped
//     per sort (the wait-freedom serving claim measured: crash-half
//     must still serve, and its req/s is tracked against the
//     baseline).
//   - against a comparable-host baseline, geomean sort throughput and
//     request throughput must each be within 10%.
func serveRules(bool) []rule {
	return []rule{
		{kind: inRun, name: "pooled/fresh", num: `^pooled/(.*)$`, den: `fresh/${1}`, bound: 1},
		{kind: drift, name: "sort throughput drift", num: `^(pooled|fresh)/`, bound: 1 - tolerance},
		{kind: drift, name: "request throughput drift", num: `^serve`, bound: 1 - tolerance},
		{kind: ratioDrift, name: "pooled/fresh ratio drift", num: `^pooled/(.*)$`, den: `fresh/${1}`, bound: 1 - tolerance},
	}
}

func measureServe(w io.Writer, o opts) (*Report, error) {
	workers := []int{1, 4}
	sizes := []int{1 << 12, 1 << 14, 1 << 16}
	serveReqs := 400
	if o.quick {
		workers = []int{min(2, runtime.GOMAXPROCS(0)*2)}
		sizes = []int{1 << 12, 1 << 14}
		serveReqs = 80
	}
	rep := newReport(o.quick, o.runs)
	for _, p := range workers {
		for _, n := range sizes {
			pooled, fresh, err := measureSortPair(p, n, o.runs)
			if err != nil {
				return nil, err
			}
			rep.add(w, fmt.Sprintf("pooled/p%d/n%d", p, n), pooled, "elems/s")
			rep.add(w, fmt.Sprintf("fresh/p%d/n%d", p, n), fresh, "elems/s")
		}
	}
	for _, mode := range []string{"serve", "serve-crashhalf"} {
		rps, err := measureServeCell(mode, serveReqs, o.runs)
		if err != nil {
			return nil, err
		}
		rep.add(w, fmt.Sprintf("%s/p%d/n%d", mode, servePool, serveReqs), rps, "req/s")
	}
	return rep, nil
}

// measureSortPair times sustained back-to-back sorts of one size
// through both the reusable pooled Sorter and the fresh one-shot path,
// alternating the two run by run so slow machine drift (thermal,
// noisy-neighbor) biases neither side, and verifies every output. Each
// timed run covers a whole batch of sorts so allocation and GC costs
// land inside the window — a server never gets a free collection
// between requests, so neither do these cells. (An earlier version
// GC'd before each op, which quietly credited the fresh path with
// exactly the work pooling removes.)
func measureSortPair(p, n, runs int) (pooled, fresh float64, err error) {
	base := rand.New(rand.NewSource(int64(n) + int64(p))).Perm(n)
	data := make([]int, n)
	sorter, err := wfsort.NewSorter[int](wfsort.WithWorkers(p))
	if err != nil {
		return 0, 0, err
	}
	defer sorter.Close()

	sortOnce := func(viaPool bool) error {
		copy(data, base)
		var err error
		if viaPool {
			err = sorter.Sort(data)
		} else {
			err = wfsort.Sort(data, wfsort.WithWorkers(p))
		}
		if err != nil {
			return fmt.Errorf("p%d/n%d: %w", p, n, err)
		}
		if !sort.IntsAreSorted(data) {
			return fmt.Errorf("p%d/n%d: output not sorted", p, n)
		}
		return nil
	}
	iters := max(8, 1<<17/n)
	timeRun := func(viaPool bool) (time.Duration, error) {
		runtime.GC() // start each run from the same heap state
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := sortOnce(viaPool); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	pooledTimes := make([]time.Duration, 0, runs)
	freshTimes := make([]time.Duration, 0, runs)
	for r := 0; r <= runs; r++ {
		tp, err := timeRun(true)
		if err != nil {
			return 0, 0, err
		}
		tf, err := timeRun(false)
		if err != nil {
			return 0, 0, err
		}
		if r > 0 { // run 0 is warmup: pool classes built, heap shaped
			pooledTimes = append(pooledTimes, tp)
			freshTimes = append(freshTimes, tf)
		}
	}
	work := float64(n) * float64(iters)
	return work / median(pooledTimes).Seconds(), work / median(freshTimes).Seconds(), nil
}

// measureServeCell boots the sort service in-process and measures
// request throughput from concurrent clients posting mixed-size
// bodies. The crash-half mode fail-stops half of each sort's workers,
// so its number is the paper's serving claim measured: the service
// keeps answering correctly at a bounded discount.
func measureServeCell(mode string, reqs, runs int) (float64, error) {
	cfg := server.Config{
		Workers:     servePool,
		MaxInFlight: 64,
		BatchWindow: time.Millisecond,
	}
	if mode == "serve-crashhalf" {
		cfg.Options = []wfsort.Option{wfsort.WithCrashes(0.5, 0), wfsort.WithSeed(7)}
	}
	times := make([]time.Duration, 0, runs)
	for r := 0; r <= runs; r++ {
		srv, err := server.New(cfg)
		if err != nil {
			return 0, err
		}
		ts := httptest.NewServer(srv.Handler())
		elapsed, err := driveClients(ts.URL, reqs)
		ts.Close()
		srv.Shutdown(context.Background()) // no deadline: the drain must complete
		if err != nil {
			return 0, fmt.Errorf("%s: %w", mode, err)
		}
		if r > 0 {
			times = append(times, elapsed)
		}
	}
	return float64(reqs) / median(times).Seconds(), nil
}

// servePool is the serve cells' worker count; clients is the
// concurrency every request-driving helper fans out to.
const (
	servePool = 4
	clients   = 4
)

// driveClients posts reqs sort requests from the fan-out clients and
// verifies every response body.
func driveClients(url string, reqs int) (time.Duration, error) {
	return fanOut(func(c int) error {
		rng := rand.New(rand.NewSource(int64(c)))
		for i := 0; i < reqs/clients; i++ {
			n := 64
			if i%3 == 0 {
				n = 4096
			}
			keys := make([]int64, n)
			for k := range keys {
				keys[k] = int64(rng.Intn(10000))
			}
			body, _ := json.Marshal(map[string]any{"keys": keys})
			resp, err := http.Post(url+"/sort", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			err = decodeSorted(resp.Body, n)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// fanOut runs f on each client concurrently and returns the wall time
// until every client finished, with the first client's error.
func fanOut(f func(c int) error) (time.Duration, error) {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = f(c)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// decodeSorted reads a JSON {"sorted": [...]} reply and checks it.
func decodeSorted(r io.Reader, n int) error {
	var out struct {
		Sorted []int64 `json:"sorted"`
	}
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return err
	}
	return checkSorted(out.Sorted, n)
}

// checkSorted checks a reply holds n keys in ascending order.
func checkSorted(keys []int64, n int) error {
	if len(keys) != n || !slices.IsSorted(keys) {
		return fmt.Errorf("bad response body (n=%d, %d keys)", n, len(keys))
	}
	return nil
}

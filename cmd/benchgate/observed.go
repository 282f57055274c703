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
	"time"

	"wfsort/internal/server"
)

// The -observed flag, besides doubling the native matrix with
// observer-installed cells, exercises the serving stack end to end: a
// fully instrumented server (request tracing, stage attribution,
// exemplar sampling and the SLO burn monitor all live) races one built
// with Config.TraceOff against the same request stream, interleaved
// run by run so machine drift biases neither side. The cells are
// "serve+trace/n<N>" and its TraceOff twin "serve/n<N>" in req/s;
// nativeRules holds the in-run traced/plain geomean to the observer's
// floor — no baseline cells, works on any host.

// measureObservedServe adds the trace plane's serving cells to rep.
func measureObservedServe(w io.Writer, rep *Report, quick bool, runs int) error {
	reqs := 400
	if quick {
		reqs = 80
	}
	for _, n := range []int{64, 4096} {
		traced, plain, err := measureObservedPair(n, reqs, runs)
		if err != nil {
			return err
		}
		rep.add(w, fmt.Sprintf("serve+trace/n%d", n), traced, "req/s")
		rep.add(w, fmt.Sprintf("serve/n%d", n), plain, "req/s")
	}
	return nil
}

// measureObservedPair times one request size through an instrumented
// server and its TraceOff twin. Both servers live for the whole cell
// (their sort pools stay warm) and the two sides alternate within each
// run so thermal or noisy-neighbor drift cancels in the ratio.
func measureObservedPair(n, reqs, runs int) (tracedRPS, plainRPS float64, err error) {
	newSrv := func(traceOff bool) (*server.Server, error) {
		cfg := server.Config{
			Workers:     4,
			MaxInFlight: 64,
			BatchWindow: time.Millisecond,
			TraceOff:    traceOff,
		}
		if !traceOff {
			// A generous SLO keeps the burn monitor observing every
			// request without ever paging — the cost we meter is the
			// recording, not an incident.
			cfg.SLO = 5 * time.Second
		}
		return server.New(cfg)
	}
	tracedSrv, err := newSrv(false)
	if err != nil {
		return 0, 0, err
	}
	defer tracedSrv.Shutdown(context.Background())
	plainSrv, err := newSrv(true)
	if err != nil {
		return 0, 0, err
	}
	defer plainSrv.Shutdown(context.Background())

	tracedTimes := make([]time.Duration, 0, runs)
	plainTimes := make([]time.Duration, 0, runs)
	for r := 0; r <= runs; r++ {
		runtime.GC()
		tt, err := driveHandler(tracedSrv.Handler(), n, reqs, true)
		if err != nil {
			return 0, 0, fmt.Errorf("traced/n%d: %w", n, err)
		}
		runtime.GC()
		pt, err := driveHandler(plainSrv.Handler(), n, reqs, false)
		if err != nil {
			return 0, 0, fmt.Errorf("plain/n%d: %w", n, err)
		}
		if r > 0 { // run 0 is warmup: pools built, batcher primed
			tracedTimes = append(tracedTimes, tt)
			plainTimes = append(plainTimes, pt)
		}
	}
	work := float64(reqs)
	return work / median(tracedTimes).Seconds(), work / median(plainTimes).Seconds(), nil
}

// driveHandler posts reqs fixed-size sort requests from the fan-out
// clients straight into the handler (no sockets) and verifies every
// response. The traced side stamps X-Trace-Id so the full accept-echo
// path runs, not just the minting shortcut.
func driveHandler(h http.Handler, n, reqs int, stampTrace bool) (time.Duration, error) {
	return fanOut(func(c int) error {
		rng := rand.New(rand.NewSource(int64(n) + int64(c)))
		for i := 0; i < reqs/clients; i++ {
			keys := make([]int64, n)
			for k := range keys {
				keys[k] = int64(rng.Intn(1 << 20))
			}
			body, _ := json.Marshal(map[string]any{"keys": keys})
			req := httptest.NewRequest(http.MethodPost, "/sort", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			if stampTrace {
				req.Header.Set("X-Trace-Id", fmt.Sprintf("bg-%d-%d", c, i))
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("status %d", rec.Code)
			}
			if err := decodeSorted(rec.Body, n); err != nil {
				return err
			}
		}
		return nil
	})
}

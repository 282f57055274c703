package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"wfsort/internal/loadgen"
	"wfsort/internal/server"
)

// serve-small: an open loop of Poisson arrivals at one fixed rate, each
// a 64-key JSON POST /sort with keyspace 100 (workload.json's small
// class), against an in-process sortd behind a loopback listener.

type serveBench struct {
	windowNs int64 // latency quantiles are medians over windows this long
	trace    *loadgen.Trace
	keys     [][]int64
	bodies   [][]byte
	want     []digest
}

// Requests are workload.json's small class: 64 keys from a keyspace
// of 100.
const (
	serveKeys     = 64
	serveKeyspace = 100
)

func newServeBench(seed uint64, rate, seconds float64) (*serveBench, error) {
	tr, err := loadgen.BuildTrace(&loadgen.Spec{
		Seed:      seed,
		HorizonMs: seconds * 1000,
		Classes: []loadgen.ClassSpec{{
			Name:     "small",
			Arrival:  loadgen.ArrivalSpec{Dist: loadgen.DistPoisson, Rate: rate},
			Size:     loadgen.SizeSpec{Dist: loadgen.SizeFixed, N: serveKeys},
			KeySpace: serveKeyspace,
		}},
	})
	if err != nil {
		return nil, err
	}
	if len(tr.Reqs) == 0 {
		return nil, fmt.Errorf("serve-small: no request falls within %.2f s at %.0f req/s", seconds, rate)
	}
	// Windows of about windowReqs requests each: enough for a p99 with
	// ten samples beyond it.
	const windowReqs = 1000
	windows := max(1, int(rate*seconds/windowReqs))
	b := &serveBench{trace: tr, windowNs: int64(seconds * 1e9 / float64(windows))}
	for _, r := range tr.Reqs {
		keys := r.Keys(serveKeyspace)
		body, err := json.Marshal(sortBody{Keys: keys})
		if err != nil {
			return nil, err
		}
		b.keys = append(b.keys, keys)
		b.bodies = append(b.bodies, body)
		b.want = append(b.want, digestOf(keys))
	}
	return b, nil
}

type sortBody struct {
	Keys []int64 `json:"keys"`
}

type sortReply struct {
	Sorted []int64 `json:"sorted"`
}

// sortdConfig is internal/server configured as cmd/sortd ships by
// default: batcher on, serial teams, QoS off, tracing on.
func sortdConfig() server.Config {
	return server.Config{
		MaxInFlight:  64,
		BatchMaxKeys: 256,
		BatchWindow:  500 * time.Microsecond,
		Timeout:      5 * time.Second,
	}
}

// daemon is one sortd: the server, its HTTP front and loopback listener.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startDaemon serves a fresh sortd on 127.0.0.1; wrap, when non-nil,
// wraps its handler.
func startDaemon(wrap func(http.Handler) http.Handler) (*daemon, error) {
	srv, err := server.New(sortdConfig())
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d, err := serveOn(h)
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d.srv = srv
	return d, nil
}

// serveOn serves h on a fresh loopback port.
func serveOn(h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop closes the listener, waits for in-flight requests and the serve
// goroutine, then drains the server.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.done
	if d.srv != nil {
		d.srv.Shutdown(ctx)
	}
}

// newClient returns an HTTP client holding at most nproc connections
// to any one host, the benchmark's single load-generating process.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
}

// postSort sends one JSON POST /sort whose body is the concatenation
// of parts, and decodes the reply.
func postSort(c *http.Client, url string, parts [][]byte, traceID string) ([]int64, int, error) {
	var body io.Reader
	size := 0
	if len(parts) == 1 {
		body, size = bytes.NewReader(parts[0]), len(parts[0])
	} else {
		readers := make([]io.Reader, len(parts))
		for i, p := range parts {
			readers[i] = bytes.NewReader(p)
			size += len(p)
		}
		body = io.MultiReader(readers...)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/sort", body)
	if err != nil {
		return nil, 0, err
	}
	req.ContentLength = int64(size)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(traceHeader, traceID)
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, nil
	}
	var r sortReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("decode reply: %w", err)
	}
	return r.Sorted, resp.StatusCode, nil
}

type serveSUT struct {
	b      *serveBench
	d      *daemon
	client *http.Client
	stats0 server.Stats
	lagMs  []float64
}

func (b *serveBench) start(rec *recorder) (sut, error) {
	var wrap func(http.Handler) http.Handler
	if rec != nil {
		wrap = func(h http.Handler) http.Handler { return rec.wrap("server.handler", h) }
	}
	d, err := startDaemon(wrap)
	if err != nil {
		return nil, err
	}
	s := &serveSUT{b: b, d: d, client: newClient()}
	// Warm-up: enough requests from nproc callers to open every
	// connection and build the pool classes the batches use.
	if err := s.warm(200); err != nil {
		s.close()
		return nil, err
	}
	s.stats0 = d.srv.Stats()
	return s, nil
}

func (s *serveSUT) warm(n int) error {
	callers := runtime.NumCPU()
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			for i := c; i < n; i += callers {
				j := i % len(s.b.bodies)
				out, status, err := postSort(s.client, s.d.url, [][]byte{s.b.bodies[j]}, warmID)
				if o := classify(status, err, out, s.b.want[j]); o != outOK {
					errs <- fmt.Errorf("serve-small warm-up request failed: status %d, %v", status, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *serveSUT) run(rec *recorder) (*tally, error) {
	outs := make([]outcome, len(s.b.bodies))
	target := loadgen.FuncTarget(func(ctx context.Context, _ string, _ []int64) ([]int64, int, error) {
		id := loadgen.TraceIDFrom(ctx)
		i, err := strconv.Atoi(strings.TrimPrefix(id, "lg-"))
		if err != nil || i < 0 || i >= len(outs) {
			return nil, 0, fmt.Errorf("unexpected trace id %q", id)
		}
		start := int64(0)
		if rec != nil {
			start = rec.now()
		}
		out, status, err := postSort(s.client, s.d.url, [][]byte{s.b.bodies[i]}, id)
		if rec != nil {
			rec.add(span{Name: "http.client", Req: id, Key: id, Start: start, End: rec.now(), N: len(s.b.keys[i])})
		}
		outs[i] = classify(status, err, out, s.b.want[i])
		return out, status, err
	})
	res := loadgen.Run(context.Background(), s.b.trace, target)
	t := &tally{wallNs: res.WallNs}
	for i, r := range res.Results {
		// loadgen times LatencyNs from issue; latency from the due time
		// also counts how late the generator issued the request.
		t.add(outs[i], len(s.b.keys[i]), r.IssuedNs+r.LatencyNs-r.PlannedNs)
		t.win = append(t.win, int(r.PlannedNs/s.b.windowNs))
		s.lagMs = append(s.lagMs, float64(r.IssuedNs-r.PlannedNs)/1e6)
	}
	if len(res.Results) < len(s.b.bodies) {
		return nil, fmt.Errorf("serve-small issued %d of %d requests", len(res.Results), len(s.b.bodies))
	}
	// The slices.Sort reference: the verified requests' keys laid end to
	// end, each request's run sorted in place, timed as one block.
	var ref []int64
	var runs [][]int64
	for i, o := range outs {
		if o == outOK {
			ref = append(ref, s.b.keys[i]...)
		}
	}
	for off := 0; off < len(ref); off += serveKeys {
		runs = append(runs, ref[off:off+serveKeys])
	}
	t0 := time.Now()
	for _, r := range runs {
		slices.Sort(r)
	}
	t.refNs = time.Since(t0).Nanoseconds()
	return t, nil
}

func (s *serveSUT) layers(rec *recorder, add func(string, float64)) {
	rec.link("server.handler", "http.client", false)
	h := durMs(rec.named("server.handler"))
	add("server.handler_ms_p50", quantile(h, 0.5))
	add("server.handler_ms_p99", quantile(h, 0.99))
	st := s.d.srv.Stats()
	add("server.batch_reqs_mean", float64(st.Batched-s.stats0.Batched)/float64(max(1, st.Batches-s.stats0.Batches)))
	shed := (st.Rejected - s.stats0.Rejected) + (st.Draining - s.stats0.Draining)
	add("server.shed_frac", float64(shed)/float64(max(1, st.Requests-s.stats0.Requests)))
	add("http.transport_ms_p50", quantile(rec.selfMs("http.client"), 0.5))
	add("loadgen.lag_ms_p99", quantile(s.lagMs, 0.99))
}

func (s *serveSUT) close() {
	s.d.stop()
	s.client.CloseIdleConnections()
}

package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wfsort/internal/server"
)

// newFleet boots n in-process sortd backends (internal/server behind
// HandlerBackend — the full serving path, no sockets) and returns the
// transports. Each backend is drained at cleanup.
func newFleet(t *testing.T, n int) []Transport {
	t.Helper()
	fleet := make([]Transport, n)
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{Workers: 2, TraceOff: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		fleet[i] = &HandlerBackend{Handler: srv.Handler(), Label: fmt.Sprintf("b%d", i)}
	}
	return fleet
}

func randKeys(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 30)
	}
	return keys
}

func sortedRef(keys []int64) []int64 {
	ref := append([]int64(nil), keys...)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	return ref
}

func assertSorted(t *testing.T, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func keyBytes(keys []int64) []byte {
	raw := make([]byte, 8*len(keys))
	for i, v := range keys {
		binary.LittleEndian.PutUint64(raw[8*i:], uint64(v))
	}
	return raw
}

// TestClusterSortBasic pushes a multi-shard sort through a 3-backend
// fleet and certifies output order, the ledger, and the dispatch
// accounting.
func TestClusterSortBasic(t *testing.T) {
	c, err := New(Config{Backends: newFleet(t, 3), ShardKeys: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := randKeys(10_000, 11)
	out, err := c.Sort(context.Background(), "default", "t-basic", keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out, sortedRef(keys))
	st := c.Stats()
	if st.SortsOK != 1 || st.SortErrors != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if want := int64(shardCount(len(keys), 1024)); st.ShardsDispatched != want {
		t.Fatalf("shards dispatched = %d, want %d", st.ShardsDispatched, want)
	}
	var ok int64
	for _, b := range st.Backends {
		ok += b.ShardsOK
	}
	if ok != st.ShardsDispatched {
		t.Fatalf("backend shard OKs %d != dispatched %d", ok, st.ShardsDispatched)
	}
	if st.Redispatches != 0 || st.LedgerFailures != 0 {
		t.Fatalf("faultless run counted faults: %+v", st)
	}
}

// TestClusterSortSmallAndEmpty locks the degenerate paths: an empty
// sort and a single-shard (no splitter) sort.
func TestClusterSortSmallAndEmpty(t *testing.T) {
	c, err := New(Config{Backends: newFleet(t, 2), ShardKeys: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if out, err := c.Sort(context.Background(), "default", "", nil); err != nil || len(out) != 0 {
		t.Fatalf("empty sort: %v, %v", out, err)
	}
	keys := randKeys(100, 2)
	out, err := c.Sort(context.Background(), "default", "", keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out, sortedRef(keys))
}

// TestClusterBackendKillMidSort is the chaos leg: one backend serves
// two shard requests then fail-stops mid-fan-out. The sort must
// complete via redispatch, count its redispatches, and produce output
// byte-identical to the faultless run — the determinism the benchgate
// kill leg certifies.
func TestClusterBackendKillMidSort(t *testing.T) {
	keys := randKeys(20_000, 13)

	// Faultless reference run.
	cRef, err := New(Config{Backends: newFleet(t, 3), ShardKeys: 1024, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cRef.Close()
	ref, err := cRef.Sort(context.Background(), "default", "t-ref", keys)
	if err != nil {
		t.Fatal(err)
	}

	// Kill run: backend 0 dies after serving 2 shard requests.
	fleet := newFleet(t, 3)
	ks := &KillSwitch{T: fleet[0]}
	fleet[0] = ks
	ks.KillAfter(2)
	c, err := New(Config{Backends: fleet, ShardKeys: 1024, Seed: 7, CoolDown: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Sort(context.Background(), "default", "t-kill", keys)
	if err != nil {
		t.Fatalf("sort did not survive the kill: %v", err)
	}
	assertSorted(t, out, sortedRef(keys))
	if !bytes.Equal(keyBytes(out), keyBytes(ref)) {
		t.Fatal("kill-leg output differs from the faultless run")
	}
	st := c.Stats()
	if st.Redispatches == 0 {
		t.Fatal("kill leg recorded no redispatches")
	}
	if ks.Refused() == 0 {
		t.Fatal("kill switch never tripped")
	}
	if st.Backends[0].Downs == 0 || st.Backends[0].ShardErrors == 0 {
		t.Fatalf("killed backend not marked down: %+v", st.Backends[0])
	}
}

// slowTransport delays every shard call; with a short ShardTimeout the
// coordinator must give up on it and redispatch.
type slowTransport struct {
	Transport
	delay time.Duration
}

func (s *slowTransport) SortShard(ctx context.Context, sr ShardRequest) (*ShardReply, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Transport.SortShard(ctx, sr)
}

// TestClusterSlowBackend routes around a backend whose every reply
// exceeds the per-shard timeout. The timeout scales with this host's
// speed — ten times one timed shard sort on a healthy backend (its
// first, context build included), never under 100 ms — so a loaded or
// race-instrumented host does not time the healthy backends out too.
func TestClusterSlowBackend(t *testing.T) {
	fleet := newFleet(t, 3)
	t0 := time.Now()
	warm, err := fleet[0].SortShard(context.Background(), ShardRequest{Class: "default", TraceID: "t-warm", Keys: randKeys(1024, 18)})
	if err != nil || warm.Status != http.StatusOK {
		t.Fatalf("warm-up shard: %v (reply %+v)", err, warm)
	}
	timeout := max(100*time.Millisecond, 10*time.Since(t0))
	t.Logf("shard timeout %v", timeout)
	fleet[1] = &slowTransport{Transport: fleet[1], delay: 5 * time.Second}
	c, err := New(Config{
		Backends:     fleet,
		ShardKeys:    1024,
		ShardTimeout: timeout,
		CoolDown:     10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := randKeys(8_000, 17)
	start := time.Now()
	out, err := c.Sort(context.Background(), "default", "t-slow", keys)
	if err != nil {
		t.Fatalf("sort did not survive the slow backend: %v", err)
	}
	assertSorted(t, out, sortedRef(keys))
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("took %v: the slow backend was waited on, not routed around", el)
	}
	st := c.Stats()
	if st.Backends[1].ShardErrors == 0 {
		t.Fatal("slow backend's timeouts not counted")
	}
}

// malformedTransport answers 200 with a corrupted body: right trace,
// wrong keys. The coordinator must reject it on the ledger and
// redispatch — a malformed reply is never returned to the caller.
type malformedTransport struct {
	name  string
	calls atomic.Int64
}

func (m *malformedTransport) Name() string { return m.name }
func (m *malformedTransport) Probe(ctx context.Context) (Probe, error) {
	return Probe{Healthy: true}, nil
}
func (m *malformedTransport) SortShard(ctx context.Context, sr ShardRequest) (*ShardReply, error) {
	m.calls.Add(1)
	bad := append([]int64(nil), sr.Keys...)
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	if len(bad) > 0 {
		bad[0]++ // sorted, right length, wrong multiset
	}
	var sum, xor int64
	for _, k := range bad {
		sum += k
		xor ^= k
	}
	return &ShardReply{Status: 200, Sorted: bad, N: len(bad), Sum: sum, Xor: xor, TraceEcho: sr.TraceID}, nil
}

// TestClusterMalformedReply certifies the acceptance check: a backend
// returning corrupted 200s is detected by the ledger, marked down and
// routed around.
func TestClusterMalformedReply(t *testing.T) {
	fleet := newFleet(t, 3)
	mal := &malformedTransport{name: "liar"}
	fleet[2] = mal
	c, err := New(Config{Backends: fleet, ShardKeys: 1024, CoolDown: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := randKeys(8_000, 19)
	out, err := c.Sort(context.Background(), "default", "t-mal", keys)
	if err != nil {
		t.Fatalf("sort did not survive the malformed backend: %v", err)
	}
	assertSorted(t, out, sortedRef(keys))
	st := c.Stats()
	if mal.calls.Load() == 0 {
		t.Skip("policy never routed to the malformed backend") // cannot happen with round-robin
	}
	if st.Backends[2].ShardErrors == 0 || st.Redispatches == 0 {
		t.Fatalf("malformed replies not counted as failures: %+v", st)
	}
}

// traceLiarTransport answers correctly but echoes a foreign trace ID —
// a reply that cannot be trusted to answer this request.
type traceLiarTransport struct{ inner Transport }

func (l *traceLiarTransport) Name() string { return "trace-liar" }
func (l *traceLiarTransport) Probe(ctx context.Context) (Probe, error) {
	return l.inner.Probe(ctx)
}
func (l *traceLiarTransport) SortShard(ctx context.Context, sr ShardRequest) (*ShardReply, error) {
	r, err := l.inner.SortShard(ctx, sr)
	if r != nil {
		r.TraceEcho = "someone-else"
	}
	return r, err
}

// TestClusterForeignTraceEcho certifies that a hostile trace echo is a
// hard failure, not an accepted reply.
func TestClusterForeignTraceEcho(t *testing.T) {
	fleet := newFleet(t, 2)
	fleet[0] = &traceLiarTransport{inner: fleet[0]}
	c, err := New(Config{Backends: fleet, ShardKeys: 1024, CoolDown: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := randKeys(4_000, 23)
	out, err := c.Sort(context.Background(), "default", "t-echo", keys)
	if err != nil {
		t.Fatalf("sort did not route around the trace liar: %v", err)
	}
	assertSorted(t, out, sortedRef(keys))
	if st := c.Stats(); st.Backends[0].ShardErrors == 0 {
		t.Fatal("foreign trace echoes not counted as failures")
	}
}

// TestClusterAllBackendsDown locks the typed failure when the whole
// fleet is dead: a bounded number of attempts, then ErrAllDown (or
// ErrExhausted) through the *Error envelope.
func TestClusterAllBackendsDown(t *testing.T) {
	fleet := newFleet(t, 2)
	for i := range fleet {
		ks := &KillSwitch{T: fleet[i]}
		ks.Kill()
		fleet[i] = ks
	}
	c, err := New(Config{Backends: fleet, ShardKeys: 1024, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Sort(context.Background(), "default", "t-down", randKeys(3_000, 29))
	if err == nil {
		t.Fatal("sort succeeded against a dead fleet")
	}
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *cluster.Error: %v", err)
	}
	if !errors.Is(err, ErrAllDown) && !errors.Is(err, ErrExhausted) {
		t.Fatalf("error kind = %v, want ErrAllDown or ErrExhausted", err)
	}
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("cause chain lost the kill: %v", err)
	}
	if st := c.Stats(); st.SortErrors != 1 {
		t.Fatalf("sort errors = %d, want 1", st.SortErrors)
	}
}

// status429Transport rejects n calls with 429, then delegates.
type status429Transport struct {
	inner Transport
	left  atomic.Int64
}

func (s *status429Transport) Name() string                             { return s.inner.Name() }
func (s *status429Transport) Probe(ctx context.Context) (Probe, error) { return s.inner.Probe(ctx) }
func (s *status429Transport) SortShard(ctx context.Context, sr ShardRequest) (*ShardReply, error) {
	if s.left.Add(-1) >= 0 {
		return &ShardReply{Status: 429, TraceEcho: sr.TraceID}, nil
	}
	return s.inner.SortShard(ctx, sr)
}

// TestClusterBackpressureRetry certifies the 429 path: retried with
// backoff against the same rotation, counted, and NOT treated as a
// backend failure.
func TestClusterBackpressureRetry(t *testing.T) {
	fleet := newFleet(t, 1)
	bp := &status429Transport{inner: fleet[0]}
	bp.left.Store(3)
	c, err := New(Config{Backends: []Transport{bp}, ShardKeys: 8192, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := randKeys(2_000, 31)
	out, err := c.Sort(context.Background(), "default", "t-bp", keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out, sortedRef(keys))
	st := c.Stats()
	if st.BackpressureRetries != 3 {
		t.Fatalf("backpressure retries = %d, want 3", st.BackpressureRetries)
	}
	if st.Redispatches != 0 || st.Backends[0].Downs != 0 {
		t.Fatalf("backpressure wrongly counted as failure: %+v", st)
	}
}

// status400Transport rejects every call with 400 — a request-shaped
// problem no redispatch can fix.
type status400Transport struct{}

func (status400Transport) Name() string                             { return "reject" }
func (status400Transport) Probe(ctx context.Context) (Probe, error) { return Probe{Healthy: true}, nil }
func (status400Transport) SortShard(ctx context.Context, sr ShardRequest) (*ShardReply, error) {
	return &ShardReply{Status: 400, TraceEcho: sr.TraceID}, nil
}

// TestClusterNonRetryableStatus locks the taxonomy: 4xx other than 429
// fails the sort immediately with ErrBackendStatus, no retry storm.
func TestClusterNonRetryableStatus(t *testing.T) {
	c, err := New(Config{Backends: []Transport{status400Transport{}}, ShardKeys: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Sort(context.Background(), "default", "t-400", randKeys(1_000, 37))
	if !errors.Is(err, ErrBackendStatus) {
		t.Fatalf("err = %v, want ErrBackendStatus", err)
	}
	if st := c.Stats(); st.ShardsDispatched != 1 {
		t.Fatalf("dispatched %d times, want exactly 1 (non-retryable)", st.ShardsDispatched)
	}
}

// TestClusterDeadlinePropagates certifies that the caller's context
// deadline bounds the whole fan-out and surfaces as a context error.
func TestClusterDeadlinePropagates(t *testing.T) {
	fleet := newFleet(t, 2)
	for i := range fleet {
		fleet[i] = &slowTransport{Transport: fleet[i], delay: 10 * time.Second}
	}
	c, err := New(Config{Backends: fleet, ShardKeys: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = c.Sort(ctx, "default", "t-dl", randKeys(4_000, 41))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestClusterDraining locks the drain contract at the coordinator API.
func TestClusterDraining(t *testing.T) {
	c, err := New(Config{Backends: newFleet(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.BeginDrain()
	if _, err := c.Sort(context.Background(), "default", "", []int64{2, 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}

// TestNewRejectsEmptyFleet locks the constructor contract.
func TestNewRejectsEmptyFleet(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v, want ErrNoBackends", err)
	}
}

// TestPolicies locks each routing policy's shape on a fixed snapshot.
func TestPolicies(t *testing.T) {
	views := []BackendView{
		{Index: 0, Outstanding: 5, ProbedInFlight: -1},
		{Index: 1, Outstanding: 0, ProbedInFlight: 2},
		{Index: 2, Outstanding: 1, ProbedInFlight: -1},
	}
	d := DispatchView{Shard: 0, Keys: 1000}

	rr := &RoundRobin{}
	seen := map[int]int{}
	for i := 0; i < 6; i++ {
		seen[rr.Pick(d, views)]++
	}
	if len(seen) != 3 || seen[0] != 2 {
		t.Fatalf("round-robin spread = %v", seen)
	}

	ll := &LeastLoaded{}
	if got := ll.Pick(d, views); got != 2 {
		// 0 carries 5, 1 carries 0+2, 2 carries 1.
		t.Fatalf("least-loaded picked %d, want 2", got)
	}

	sa := SizeAffinity{}
	first := sa.Pick(d, views)
	for i := 0; i < 5; i++ {
		if got := sa.Pick(DispatchView{Shard: i, Keys: 1000}, views); got != first {
			t.Fatalf("size-affinity not sticky for equal sizes: %d vs %d", got, first)
		}
	}

	for _, name := range []string{"", "round-robin", "least-loaded", "size-affinity"} {
		if _, err := ParsePolicy(name); err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestClusterProber certifies the active prober: a killed backend
// leaves rotation on probe failure and re-enters once revived.
func TestClusterProber(t *testing.T) {
	fleet := newFleet(t, 2)
	ks := &KillSwitch{T: fleet[0]}
	fleet[0] = ks
	c, err := New(Config{
		Backends:   fleet,
		ProbeEvery: 20 * time.Millisecond,
		CoolDown:   40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ks.Kill()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Backends[0].Healthy && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if c.Stats().Backends[0].Healthy {
		t.Fatal("prober never took the killed backend out of rotation")
	}

	ks.Revive()
	for !c.Stats().Backends[0].Healthy && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !c.Stats().Backends[0].Healthy {
		t.Fatal("prober never revived the backend")
	}
	if c.Stats().Backends[0].ProbedInFlight < 0 {
		t.Fatal("probe gauge never refreshed")
	}
}

// --- handler surface ---

func newHandler(t *testing.T, backends int, hc HandlerConfig) (http.Handler, *Coordinator) {
	t.Helper()
	c, err := New(Config{Backends: newFleet(t, backends), ShardKeys: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	h, _ := NewHandler(c, hc)
	return h, c
}

func postSort(h http.Handler, keys []int64, hdr map[string]string) *httptest.ResponseRecorder {
	body, _ := json.Marshal(map[string]any{"keys": keys})
	req := httptest.NewRequest(http.MethodPost, "/sort", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHandlerSort locks the coordinator's /sort contract: sorted body,
// shard count, trace echo for a valid ID and a minted one otherwise.
func TestHandlerSort(t *testing.T) {
	h, _ := newHandler(t, 2, HandlerConfig{})
	keys := randKeys(3_000, 43)
	rec := postSort(h, keys, map[string]string{TraceHeader: "client-7"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(TraceHeader); got != "client-7" {
		t.Fatalf("trace echo %q", got)
	}
	var out struct {
		Sorted []int64 `json:"sorted"`
		N      int     `json:"n"`
		Shards int     `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.N != len(keys) || out.Shards != shardCount(len(keys), 1024) {
		t.Fatalf("n=%d shards=%d", out.N, out.Shards)
	}
	assertSorted(t, out.Sorted, sortedRef(keys))

	// A hostile trace ID is re-minted, not echoed.
	rec = postSort(h, []int64{3, 1}, map[string]string{TraceHeader: "bad id\nwith newline"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get(TraceHeader); got == "" || strings.ContainsAny(got, " \n") {
		t.Fatalf("hostile trace not re-minted: %q", got)
	}
}

// TestHandlerRejections locks the 4xx/5xx surface: bad class 400, bad
// body 400, oversize 413, draining 503, at-capacity 429.
func TestHandlerRejections(t *testing.T) {
	h, c := newHandler(t, 1, HandlerConfig{MaxKeys: 100, MaxInFlight: 1})

	if rec := postSort(h, []int64{1}, map[string]string{ClassHeader: "bad class"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad class: %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/sort", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", rec.Code)
	}
	if rec := postSort(h, make([]int64, 101), nil); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize: %d", rec.Code)
	}

	c.BeginDrain()
	if rec := postSort(h, []int64{1}, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining: %d", rec.Code)
	}
	st := c.Stats()
	if st.Errors == 0 || st.TooLarge != 1 || st.Drained != 1 {
		t.Fatalf("handler counters: %+v", st)
	}
}

// TestHandlerHealthzMetrics locks the observability surface.
func TestHandlerHealthzMetrics(t *testing.T) {
	h, c := newHandler(t, 2, HandlerConfig{})
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	rec := get("/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var hz struct {
		OK       bool `json:"ok"`
		Backends int  `json:"backends"`
		Healthy  int  `json:"healthy"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil || !hz.OK || hz.Backends != 2 || hz.Healthy != 2 {
		t.Fatalf("healthz body: %s (err %v)", rec.Body.String(), err)
	}

	rec = get("/metrics")
	var m struct {
		Coordinator Stats `json:"coordinator"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || len(m.Coordinator.Backends) != 2 {
		t.Fatalf("metrics body: %s (err %v)", rec.Body.String(), err)
	}

	// Draining flips healthz to 503.
	c.BeginDrain()
	if rec := get("/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", rec.Code)
	}
}

// TestHandlerDrain locks NewHandler's drain func: it flips the
// coordinator and returns once in-flight requests are gone.
func TestHandlerDrain(t *testing.T) {
	c, err := New(Config{Backends: newFleet(t, 1), ShardKeys: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, drain := NewHandler(c, HandlerConfig{})
	if rec := postSort(h, []int64{2, 1, 3}, nil); rec.Code != http.StatusOK {
		t.Fatalf("pre-drain sort: %d", rec.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rec := postSort(h, []int64{1}, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain sort: %d", rec.Code)
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"wfsort/internal/cluster"
	"wfsort/internal/merge"
	"wfsort/internal/wire"
)

// cluster-bulk: one closed-loop caller sends JSON POST /sort to a
// cluster coordinator with sortc's defaults, in front of two in-process
// sortd backends reached over the binary wire codec. Each request
// covers one to four shards of uniform keys.

// clusterJob is one request: the window pool[off:off+n] of a shared
// pool of uniform keys. The pool is JSON-encoded once, and a request
// body is that text's slice for the window between a fixed prefix and
// suffix, so every body exists before timing without a list's worth of
// multi-megabyte copies.
type clusterJob struct {
	off, n, shards int
	want           digest
}

type clusterBench struct {
	shardKeys int
	pool      []int64
	text      []byte // pool as JSON numbers, each followed by ','
	starts    []int  // text offset of each key, plus len(text)
	jobs      []clusterJob
}

// newClusterBench draws count requests whose sizes are stratified over
// [shardKeys/2, 4*shardKeys], so each splits into one to four shards
// and the latency quantiles fall inside a continuous spread of sizes,
// not on the step between two shard counts.
func newClusterBench(seed uint64, count, shardKeys int) *clusterBench {
	rng := rand.New(rand.NewPCG(seed, 0xc1))
	b := &clusterBench{shardKeys: shardKeys, pool: make([]int64, 5*shardKeys)}
	for i := range b.pool {
		b.pool[i] = int64(rng.Uint64())
	}
	for _, k := range b.pool {
		b.starts = append(b.starts, len(b.text))
		b.text = append(strconv.AppendInt(b.text, k, 10), ',')
	}
	b.starts = append(b.starts, len(b.text))
	lo, hi := float64(shardKeys/2), float64(4*shardKeys)
	us := stratified(1, count, 0)
	rng.Shuffle(count, func(i, j int) { us[i], us[j] = us[j], us[i] })
	for _, u := range us {
		j := clusterJob{n: int(lo + u*(hi-lo))}
		j.shards = (j.n + shardKeys - 1) / shardKeys
		j.off = rng.IntN(len(b.pool) - j.n + 1)
		j.want = digestOf(b.keys(j))
		b.jobs = append(b.jobs, j)
	}
	return b
}

func (b *clusterBench) keys(j clusterJob) []int64 { return b.pool[j.off : j.off+j.n] }

// body is j's JSON request body, in parts.
func (b *clusterBench) body(j clusterJob) [][]byte {
	return [][]byte{[]byte(`{"keys":[`), b.text[b.starts[j.off] : b.starts[j.off+j.n]-1], []byte(`]}`)}
}

type clusterSUT struct {
	b        *clusterBench
	backends []*daemon
	coord    *cluster.Coordinator
	drain    func(context.Context) error
	front    *daemon
	client   *http.Client
	stats0   cluster.Stats
	shards   int // shards the timed requests asked for
	captured *capture
}

func (b *clusterBench) start(rec *recorder) (sut, error) {
	s := &clusterSUT{b: b, client: newClient(), captured: &capture{keep: 4}}
	var fleet []cluster.Transport
	for i := 0; i < 2; i++ {
		var wrap func(http.Handler) http.Handler
		if rec != nil {
			wrap = func(h http.Handler) http.Handler { return rec.wrap("server.shard_handler", h) }
		}
		d, err := startDaemon(wrap)
		if err != nil {
			s.close()
			return nil, err
		}
		s.backends = append(s.backends, d)
		var t cluster.Transport = &cluster.HTTPBackend{URL: d.url, Wire: true}
		if rec != nil {
			t = &tracedTransport{Transport: t, rec: rec, cap: s.captured}
		}
		fleet = append(fleet, t)
	}
	// cmd/sortc's defaults, with -wire.
	coord, err := cluster.New(cluster.Config{
		Backends:     fleet,
		ShardKeys:    b.shardKeys,
		ShardTimeout: 10 * time.Second,
		ProbeEvery:   2 * time.Second,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.coord = coord
	h, drain := cluster.NewHandler(coord, cluster.HandlerConfig{
		MaxInFlight: 64,
		MaxKeys:     1 << 22,
		Timeout:     60 * time.Second,
	})
	s.drain = drain
	if rec != nil {
		h = rec.wrap("cluster.request", h)
	}
	if s.front, err = serveOn(h); err != nil {
		s.close()
		return nil, err
	}
	pctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	coord.ProbeNow(pctx)
	cancel()
	if err := s.warm(); err != nil {
		s.close()
		return nil, err
	}
	s.stats0 = coord.Stats()
	return s, nil
}

// warm sends each backend two concurrent shards of each pool class a
// shard can land in (just under and just over shardKeys), then one
// two-shard request through the coordinator, which opens its
// connections to both backends.
func (s *clusterSUT) warm() error {
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(s.backends))
	for _, d := range s.backends {
		for _, n := range []int{s.b.shardKeys, s.b.shardKeys + 1} {
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func(url string, part []int64) {
					defer wg.Done()
					errs <- postShard(url, part)
				}(d.url, s.b.pool[:n])
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	j := clusterJob{n: 2 * s.b.shardKeys, shards: 2}
	out, status, err := postSort(s.client, s.front.url, s.b.body(j), warmID)
	if o := classify(status, err, out, digestOf(s.b.keys(j))); o != outOK {
		return fmt.Errorf("cluster-bulk warm-up request failed: status %d, %v", status, err)
	}
	return nil
}

// postShard sends one binary /shard request straight to a backend.
func postShard(url string, keys []int64) error {
	resp, err := http.Post(url+"/shard", wire.ContentType, bytes.NewReader(wire.AppendBlock(nil, wire.KindRequest, keys)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	got, _, err := wire.ReadBlock(resp.Body, wire.KindShardReply, 0)
	if err != nil {
		return err
	}
	if !sortedAs(got, digestOf(keys)) {
		return fmt.Errorf("warm-up shard of %d keys came back wrong", len(keys))
	}
	return nil
}

func (s *clusterSUT) run(rec *recorder) (*tally, error) {
	t := &tally{}
	ref := make([]int64, 0, 4*s.b.shardKeys)
	for ji, j := range s.b.jobs {
		id := fmt.Sprintf("cb-%d", ji)
		var out []int64
		var status int
		var err error
		var t0 time.Time
		var ns int64
		t.measureAlloc(j.n, func() {
			t0 = time.Now()
			out, status, err = postSort(s.client, s.front.url, s.b.body(j), id)
			ns = time.Since(t0).Nanoseconds()
		})
		if rec != nil {
			at := t0.Sub(rec.t0).Nanoseconds()
			rec.add(span{Name: "cluster.client", Req: id, Key: id, Start: at, End: at + ns, N: j.n})
		}
		o := classify(status, err, out, j.want)
		t.add(o, j.n, ns)
		t.wallNs += ns
		s.shards += j.shards
		if o != outOK {
			continue
		}
		ref = append(ref[:0], s.b.keys(j)...)
		t1 := time.Now()
		slices.Sort(ref)
		t.refNs += time.Since(t1).Nanoseconds()
	}
	return t, nil
}

func (s *clusterSUT) layers(rec *recorder, add func(string, float64)) {
	rec.link("cluster.request", "cluster.client", false)
	rec.link("cluster.shard", "cluster.request", false)
	rec.link("server.shard_handler", "cluster.shard", true)
	sh := durMs(rec.named("cluster.shard"))
	add("cluster.shard_ms_p50", quantile(sh, 0.5))
	add("cluster.shard_ms_p90", quantile(sh, 0.9))
	add("cluster.self_ms_p50", quantile(rec.selfMs("cluster.request"), 0.5))
	st := s.coord.Stats()
	add("cluster.attempts_per_shard", float64(st.ShardsDispatched-s.stats0.ShardsDispatched)/float64(max(1, s.shards)))
	add("cluster.max_shard_frac", s.captured.maxShardFrac())
	add("server.shard_handler_ms_p50", quantile(durMs(rec.named("server.shard_handler")), 0.5))

	// Codec and merge costs, timed on this workload's own shard key sets
	// and shard replies. A wrong decode or merge leaves its metric NaN,
	// which fails the run.
	var enc, dec, fold, keys float64
	var buf []byte
	for _, k := range s.captured.sent {
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			buf = wire.AppendBlock(buf[:0], wire.KindRequest, k)
			t1 := time.Now()
			got, _, err := wire.ReadBlock(bytes.NewReader(buf), wire.KindRequest, 0)
			t2 := time.Now()
			wire.Fold(k)
			t3 := time.Now()
			if err != nil || !slices.Equal(got, k) {
				dec = math.NaN()
			}
			enc += float64(t1.Sub(t0))
			dec += float64(t2.Sub(t1))
			fold += float64(t3.Sub(t2))
			keys += float64(len(k))
		}
	}
	add("wire.encode_ns_per_key", enc/keys)
	add("wire.decode_ns_per_key", dec/keys)
	add("wire.ledger_ns_per_key", fold/keys)
	var mergeNs, mergeKeys float64
	for _, runs := range s.captured.runs {
		want := digestOf(slices.Concat(runs...))
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			out := merge.Slices(runs, want.n)
			mergeNs += float64(time.Since(t0))
			mergeKeys += float64(want.n)
			if !sortedAs(out, want) {
				mergeNs = math.NaN()
			}
		}
	}
	add("merge.ns_per_key", mergeNs/mergeKeys)
}

func (s *clusterSUT) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.front != nil {
		s.front.stop()
	}
	if s.drain != nil {
		s.drain(ctx)
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, d := range s.backends {
		d.stop()
	}
	s.client.CloseIdleConnections()
}

// tracedTransport records a span around every shard attempt and keeps
// the shard key sets and sorted replies of the first few requests.
type tracedTransport struct {
	cluster.Transport
	rec *recorder
	cap *capture
}

func (t *tracedTransport) SortShard(ctx context.Context, sr cluster.ShardRequest) (*cluster.ShardReply, error) {
	start := t.rec.now()
	reply, err := t.Transport.SortShard(ctx, sr)
	req, _, _ := strings.Cut(sr.TraceID, ".")
	t.rec.add(span{Name: "cluster.shard", Req: req, Key: sr.TraceID, Start: start, End: t.rec.now(), N: len(sr.Keys)})
	if err == nil && reply.Status == http.StatusOK {
		t.cap.add(req, sr.Keys, reply.Sorted)
	}
	return reply, err
}

// capture holds per-request shard sizes, and the shard key sets and
// replies of the first keep multi-shard requests.
type capture struct {
	keep  int
	mu    sync.Mutex
	sizes map[string][]int
	order []string
	sent  [][]int64
	runs  map[string][][]int64
}

func (c *capture) add(req string, keys, sorted []int64) {
	if req == warmID {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sizes == nil {
		c.sizes, c.runs = map[string][]int{}, map[string][][]int64{}
	}
	if _, ok := c.sizes[req]; !ok {
		c.order = append(c.order, req)
	}
	c.sizes[req] = append(c.sizes[req], len(keys))
	if len(c.order) <= c.keep {
		c.sent = append(c.sent, keys)
		c.runs[req] = append(c.runs[req], sorted)
	}
}

// maxShardFrac is the mean over requests of the largest shard's share
// of the request's keys.
func (c *capture) maxShardFrac() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum float64
	for _, req := range c.order {
		total, top := 0, 0
		for _, n := range c.sizes[req] {
			total += n
			top = max(top, n)
		}
		sum += float64(top) / float64(total)
	}
	return sum / float64(len(c.order))
}

// Package cluster is the distributed sort tier: a sample-sort
// coordinator that spreads one large sort across N sortd backends.
//
// One sortd instance is bounded by one host; the coordinator is the
// piece that turns a fleet of them into one service. A sort arrives,
// the coordinator draws seeded splitters from a sample of the input,
// scatters bounded key-range shards to backends over the existing
// HTTP/QoS surface (X-Sort-Class, deadlines and X-Trace-Id all
// propagate, so the request trace plane spans the fan-out), each
// backend runs its shard through the pooled wait-free sorter, and the
// sorted runs are k-way merged on the way back.
//
// Failure handling leans on the property the wait-free core already
// gives each node: a sort is a pure function of its input, so a shard
// may be re-executed anywhere, any number of times, without
// coordination. The coordinator therefore retries backpressure
// (429/503) with bounded backoff and redispatches hard failures —
// backend kill, timeout, malformed reply — to a surviving backend,
// and a sum/xor multiset ledger (wire.Ledger, shared with the codec)
// certifies per shard and per sort that no element was lost or
// duplicated across those retries. Routing is policy-pluggable
// (round-robin, least-loaded, size-affinity) behind the qos.Sched-
// shaped Policy interface, with passive health (a failed backend
// leaves rotation for CoolDown) plus an optional active prober.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wfsort/internal/wire"
)

// Config sizes the coordinator; zero values take the defaults noted.
type Config struct {
	// Backends is the fleet, in fixed index order. Required.
	Backends []Transport
	// Policy routes dispatches (default: round-robin).
	Policy Policy
	// ShardKeys caps each shard's key count (default 1<<16). The shard
	// is the unit of backend work: the count grows with the input, so
	// a single coordinator request may fan out to many more shards
	// than backends.
	ShardKeys int
	// Oversample is the splitter sample size per shard (default 32):
	// k shards sample k*Oversample keys. More sample, tighter balance.
	Oversample int
	// Seed fixes the splitter sample (default 1). The same input and
	// seed always cut — and therefore merge — identically.
	Seed uint64
	// MaxRedispatch is the per-shard hard-failure budget: the number
	// of failed attempts (kill, timeout, malformed, 5xx) tolerated
	// before the sort fails with ErrExhausted (default
	// 2*len(Backends)+2).
	MaxRedispatch int
	// MaxBackpressure is the per-shard 429 retry budget (default 256).
	MaxBackpressure int
	// Backoff is the first backpressure retry delay; it doubles per
	// consecutive 429 up to MaxBackoff (defaults 2ms, 250ms).
	Backoff, MaxBackoff time.Duration
	// CoolDown is how long a failed backend stays out of rotation
	// before it is tried again (default 500ms).
	CoolDown time.Duration
	// ShardTimeout bounds one shard attempt (default 10s); the
	// caller's context deadline still bounds the whole sort.
	ShardTimeout time.Duration
	// ProbeEvery enables the active health prober at that interval
	// (0 = passive health only). The prober revives a down backend as
	// soon as /healthz answers ok and refreshes the load gauge the
	// least-loaded policy reads.
	ProbeEvery time.Duration
}

func (c *Config) fill() {
	if c.Policy == nil {
		c.Policy = &RoundRobin{}
	}
	if c.ShardKeys <= 0 {
		c.ShardKeys = 1 << 16
	}
	if c.Oversample <= 0 {
		c.Oversample = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxRedispatch <= 0 {
		c.MaxRedispatch = 2*len(c.Backends) + 2
	}
	if c.MaxBackpressure <= 0 {
		c.MaxBackpressure = 256
	}
	if c.Backoff <= 0 {
		c.Backoff = 2 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 250 * time.Millisecond
	}
	if c.CoolDown <= 0 {
		c.CoolDown = 500 * time.Millisecond
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 10 * time.Second
	}
}

// backend is the coordinator's per-backend bookkeeping. All fields are
// atomics: dispatch goroutines, the prober and metrics readers touch
// them concurrently.
type backend struct {
	t              Transport
	downUntil      atomic.Int64 // unix ns; 0 = up
	outstanding    atomic.Int64
	shardsOK       atomic.Int64
	shardErrs      atomic.Int64
	downs          atomic.Int64
	probedInFlight atomic.Int64 // -1 until the first probe lands
	probedShardOK  atomic.Int64
}

func (b *backend) up(now int64) bool { return b.downUntil.Load() <= now }

// markDown takes the backend out of rotation for coolDown, counting
// the up->down transition once.
func (b *backend) markDown(coolDown time.Duration) {
	now := time.Now().UnixNano()
	if b.downUntil.Swap(now+coolDown.Nanoseconds()) <= now {
		b.downs.Add(1)
	}
}

// BackendStats is one backend's public counter snapshot.
type BackendStats struct {
	Name           string `json:"name"`
	Healthy        bool   `json:"healthy"`
	Outstanding    int64  `json:"outstanding"`
	ShardsOK       int64  `json:"shards_ok"`
	ShardErrors    int64  `json:"shard_errors"`
	Downs          int64  `json:"downs"`
	ProbedInFlight int64  `json:"probed_in_flight"`
	ProbedShardOK  int64  `json:"probed_shard_ok"`
}

// Stats is the coordinator's cumulative counter snapshot. The serving
// counters (Requests..Errors) are filled by the HTTP handler; direct
// Sort callers see them at zero.
type Stats struct {
	Sorts               int64          `json:"sorts"`
	SortsOK             int64          `json:"sorts_ok"`
	SortErrors          int64          `json:"sort_errors"`
	ShardsDispatched    int64          `json:"shards_dispatched"`
	Redispatches        int64          `json:"redispatches"`
	BackpressureRetries int64          `json:"backpressure_retries"`
	LedgerFailures      int64          `json:"ledger_failures"`
	Requests            int64          `json:"requests"`
	Rejected            int64          `json:"rejected_429"`
	TooLarge            int64          `json:"rejected_413"`
	Drained             int64          `json:"rejected_503"`
	Canceled            int64          `json:"canceled"`
	Errors              int64          `json:"errors"`
	Draining            bool           `json:"draining"`
	Backends            []BackendStats `json:"backends"`
}

// Coordinator is one cluster-sort instance over a fixed backend fleet.
type Coordinator struct {
	cfg      Config
	backends []*backend
	traceSeq atomic.Uint64
	draining atomic.Bool
	stop     chan struct{}
	prober   sync.WaitGroup

	sorts, sortsOK, sortErrors atomic.Int64
	shardsDispatched           atomic.Int64
	redispatches, bpRetries    atomic.Int64
	ledgerFailures             atomic.Int64
	requests, rejected         atomic.Int64
	tooLarge, drained          atomic.Int64
	canceled, errCount         atomic.Int64
}

// New builds a coordinator and, when cfg.ProbeEvery > 0, starts its
// health prober (stop it with Close).
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, ErrNoBackends
	}
	cfg.fill()
	c := &Coordinator{cfg: cfg, stop: make(chan struct{})}
	for _, t := range cfg.Backends {
		b := &backend{t: t}
		b.probedInFlight.Store(-1)
		c.backends = append(c.backends, b)
	}
	if cfg.ProbeEvery > 0 {
		c.prober.Add(1)
		go c.runProber()
	}
	return c, nil
}

// Close stops the prober; in-flight sorts are unaffected.
func (c *Coordinator) Close() {
	close(c.stop)
	c.prober.Wait()
}

// BeginDrain makes subsequent sorts fail with ErrDraining (the handler
// maps it to 503); in-flight ones finish.
func (c *Coordinator) BeginDrain() { c.draining.Store(true) }

// Sort runs one cluster sort: split keys into bounded shards along
// sampled splitters, scatter them to backends under class/trace/
// deadline propagation, verify and merge the replies. The input slice
// is not modified. Every error is a *Error wrapping one of the
// package sentinels (or the context's error when the caller's
// deadline fired first).
func (c *Coordinator) Sort(ctx context.Context, class, traceID string, keys []int64) ([]int64, error) {
	if c.draining.Load() {
		return nil, shardErr(ErrDraining, "", -1, 0, nil)
	}
	c.sorts.Add(1)
	out, err := c.sort(ctx, class, traceID, keys)
	if err != nil {
		c.sortErrors.Add(1)
		return nil, err
	}
	c.sortsOK.Add(1)
	return out, nil
}

func (c *Coordinator) sort(ctx context.Context, class, traceID string, keys []int64) ([]int64, error) {
	n := len(keys)
	if n == 0 {
		return []int64{}, nil
	}
	if traceID == "" || !validTraceID(traceID) {
		traceID = fmt.Sprintf("c-%d", c.traceSeq.Add(1))
	}
	total := wire.LedgerOf(keys)

	k := shardCount(n, c.cfg.ShardKeys)
	var shards [][]int64
	if k == 1 {
		shards = [][]int64{keys}
	} else {
		shards = partition(keys, drawSplitters(keys, k, c.cfg.Oversample, c.cfg.Seed))
	}

	// Scatter. The first failure cancels the remaining dispatches —
	// their shards would be thrown away anyway.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sorted := make([][]int64, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for si, shard := range shards {
		if len(shard) == 0 {
			sorted[si] = nil
			continue
		}
		wg.Add(1)
		go func(si int, shard []int64) {
			defer wg.Done()
			out, err := c.sortShard(sctx, class, traceID, si, shard)
			if err != nil {
				errs[si] = err
				cancel()
				return
			}
			sorted[si] = out
		}(si, shard)
	}
	wg.Wait()
	for si := range errs {
		if errs[si] != nil {
			// Prefer a real failure over a cancellation it caused.
			if ctx.Err() == nil {
				for sj := range errs {
					if errs[sj] != nil && !isCtxErr(errs[sj]) {
						return nil, errs[sj]
					}
				}
			}
			return nil, errs[si]
		}
	}

	var out []int64
	if len(shards) == 1 {
		out = sorted[0]
	} else {
		out = kmerge(sorted, n)
	}
	if got := wire.LedgerOf(out); got != total {
		c.ledgerFailures.Add(1)
		return nil, shardErr(ErrLedger, "", -1, 0,
			fmt.Errorf("sent count=%d sum=%d xor=%d, merged count=%d sum=%d xor=%d",
				total.N, total.Sum, total.Xor, got.N, got.Sum, got.Xor))
	}
	return out, nil
}

// isCtxErr reports whether err is (or wraps) a context error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// sortShard runs one shard to acceptance or budget exhaustion:
// backpressure retries with doubling backoff, hard failures mark the
// backend down and redispatch via the policy, and every accepted reply
// has passed length, sortedness, trace-echo and sum/xor ledger checks
// against what was sent.
func (c *Coordinator) sortShard(ctx context.Context, class, traceID string, si int, keys []int64) ([]int64, error) {
	sent := wire.LedgerOf(keys)
	fails, bp := 0, 0
	backoff := c.cfg.Backoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, shardErr(err, "", si, attempt, lastErr)
		}
		b, allDown := c.pick(si, len(keys), attempt)
		if allDown && fails > c.cfg.MaxRedispatch {
			return nil, shardErr(ErrAllDown, "", si, attempt, lastErr)
		}
		tid := shardTraceID(traceID, si, attempt)
		tctx, tcancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
		c.shardsDispatched.Add(1)
		b.outstanding.Add(1)
		reply, err := b.t.SortShard(tctx, ShardRequest{Class: class, TraceID: tid, Keys: keys})
		b.outstanding.Add(-1)
		tcancel()

		fail := func(cause error) {
			b.shardErrs.Add(1)
			b.markDown(c.cfg.CoolDown)
			lastErr = fmt.Errorf("backend %s: %w", b.t.Name(), cause)
			fails++
			c.redispatches.Add(1)
		}

		switch {
		case err != nil:
			if ctx.Err() != nil {
				// The caller's deadline, not the backend's fault.
				return nil, shardErr(ctx.Err(), b.t.Name(), si, attempt, err)
			}
			fail(err)
		case reply.Status == 200:
			if verr := verifyShardReply(keys, sent, tid, reply); verr != nil {
				fail(verr)
			} else {
				b.shardsOK.Add(1)
				return reply.Sorted, nil
			}
		case reply.Status == 429:
			bp++
			if bp > c.cfg.MaxBackpressure {
				return nil, shardErr(ErrExhausted, b.t.Name(), si, attempt,
					fmt.Errorf("%d consecutive backpressure rejections", bp))
			}
			c.bpRetries.Add(1)
			if !sleepCtx(ctx, backoff) {
				return nil, shardErr(ctx.Err(), b.t.Name(), si, attempt, nil)
			}
			if backoff *= 2; backoff > c.cfg.MaxBackoff {
				backoff = c.cfg.MaxBackoff
			}
			continue
		case reply.Status >= 500:
			// Draining (503), crashed (500) or deadline-shed (504): the
			// backend is not taking this shard; move on without it.
			fail(fmt.Errorf("backend status %d", reply.Status))
		default:
			// 400/413/...: the shard itself was rejected; another
			// backend would reject it the same way.
			return nil, shardErr(ErrBackendStatus, b.t.Name(), si, attempt,
				fmt.Errorf("status %d", reply.Status))
		}
		if fails > c.cfg.MaxRedispatch {
			return nil, shardErr(ErrExhausted, b.t.Name(), si, attempt, lastErr)
		}
		// A fresh consecutive-backpressure run starts after a failure.
		bp, backoff = 0, c.cfg.Backoff
	}
}

// verifyShardReply is the acceptance check every 200 passes before its
// keys may enter the merge: exact trace echo (a foreign echo means the
// reply answers some other request), exact length, sortedness, and the
// sum/xor ledger — both against the coordinator's own fold of what it
// sent and against the backend's fold of what it sorted. A reply for
// another shard fails the ledger unless its keys happen to share this
// shard's length, sum and xor. The fold is not a multiset hash: a
// sorted, length-correct reply that preserves both the sum and the xor
// passes. For shard [1 2 4 3], the value substitution [0 3 3 4] and
// the compensating bit-flip pair [1 1 2 6] are both accepted. ROADMAP's
// "Make the integrity checks catch what they claim" item replaces the
// fold with a multiset hash.
func verifyShardReply(sentKeys []int64, sent wire.Ledger, tid string, r *ShardReply) error {
	if r.TraceEcho != "" && r.TraceEcho != tid {
		return ErrTraceEcho
	}
	if len(r.Sorted) != len(sentKeys) || r.N != len(sentKeys) {
		return ErrMalformed
	}
	if !slices.IsSorted(r.Sorted) {
		return ErrMalformed
	}
	echoed := wire.Ledger{N: int64(r.N), Sum: r.Sum, Xor: r.Xor}
	if wire.LedgerOf(r.Sorted) != sent || echoed != sent {
		return ErrMalformed
	}
	return nil
}

// pick snapshots the rotation and routes via the policy. With every
// backend cooling down it falls back to the full fleet (allDown true):
// a dead backend fails fast and the budget in sortShard bounds the
// damage, while a merely cooling one may well serve.
func (c *Coordinator) pick(si, nkeys, attempt int) (*backend, bool) {
	now := time.Now().UnixNano()
	views := make([]BackendView, 0, len(c.backends))
	for i, b := range c.backends {
		if b.up(now) {
			views = append(views, BackendView{
				Index:          i,
				Outstanding:    b.outstanding.Load(),
				ProbedInFlight: b.probedInFlight.Load(),
			})
		}
	}
	allDown := len(views) == 0
	if allDown {
		for i, b := range c.backends {
			views = append(views, BackendView{
				Index:          i,
				Outstanding:    b.outstanding.Load(),
				ProbedInFlight: b.probedInFlight.Load(),
			})
		}
	}
	idx := c.cfg.Policy.Pick(DispatchView{Shard: si, Keys: nkeys, Attempt: attempt}, views)
	if idx < 0 || idx >= len(views) {
		idx = 0
	}
	return c.backends[views[idx].Index], allDown
}

// shardTraceID derives the per-shard trace ID: the caller's ID
// (truncated so the suffix always fits the 64-char trace syntax) plus
// shard and attempt, e.g. "lg-17.s2.a0" — resolvable on the backend's
// /trace/{id} surface, which is what lets the trace plane follow one
// request across the whole fan-out, retries included.
func shardTraceID(base string, si, attempt int) string {
	const maxBase = 44
	if len(base) > maxBase {
		base = base[:maxBase]
	}
	return fmt.Sprintf("%s.s%d.a%d", base, si, attempt)
}

// runProber polls every backend at cfg.ProbeEvery: a healthy answer
// refreshes the least-loaded gauge and lifts any cooldown early; a
// failed or unhealthy one starts (or extends) the cooldown.
func (c *Coordinator) runProber() {
	defer c.prober.Done()
	t := time.NewTicker(c.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		for _, b := range c.backends {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeEvery)
			p, err := b.t.Probe(ctx)
			cancel()
			if err != nil || !p.Healthy || p.Draining {
				b.markDown(c.cfg.CoolDown)
				continue
			}
			b.probedInFlight.Store(p.InFlight)
			b.probedShardOK.Store(p.ShardOK)
			b.downUntil.Store(0)
		}
	}
}

// ProbeNow runs one synchronous probe sweep (tests and the sortc
// banner use it; the background prober does the same thing on a
// ticker).
func (c *Coordinator) ProbeNow(ctx context.Context) {
	for _, b := range c.backends {
		p, err := b.t.Probe(ctx)
		if err != nil || !p.Healthy || p.Draining {
			b.markDown(c.cfg.CoolDown)
			continue
		}
		b.probedInFlight.Store(p.InFlight)
		b.probedShardOK.Store(p.ShardOK)
		b.downUntil.Store(0)
	}
}

// Stats snapshots every counter.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Sorts:               c.sorts.Load(),
		SortsOK:             c.sortsOK.Load(),
		SortErrors:          c.sortErrors.Load(),
		ShardsDispatched:    c.shardsDispatched.Load(),
		Redispatches:        c.redispatches.Load(),
		BackpressureRetries: c.bpRetries.Load(),
		LedgerFailures:      c.ledgerFailures.Load(),
		Requests:            c.requests.Load(),
		Rejected:            c.rejected.Load(),
		TooLarge:            c.tooLarge.Load(),
		Drained:             c.drained.Load(),
		Canceled:            c.canceled.Load(),
		Errors:              c.errCount.Load(),
		Draining:            c.draining.Load(),
	}
	now := time.Now().UnixNano()
	for _, b := range c.backends {
		st.Backends = append(st.Backends, BackendStats{
			Name:           b.t.Name(),
			Healthy:        b.up(now),
			Outstanding:    b.outstanding.Load(),
			ShardsOK:       b.shardsOK.Load(),
			ShardErrors:    b.shardErrs.Load(),
			Downs:          b.downs.Load(),
			ProbedInFlight: b.probedInFlight.Load(),
			ProbedShardOK:  b.probedShardOK.Load(),
		})
	}
	return st
}

// sleepCtx sleeps d or until ctx is done; false means ctx fired.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Package wfsort is a wait-free parallel sorting library, a faithful
// implementation of Shavit, Upfal and Zemach, "A Wait-Free Sorting
// Algorithm" (PODC 1997).
//
// The algorithm sorts N elements with P <= N cooperating workers in
// three wait-free phases: a Quicksort pivot tree is built by
// compare-and-swap, subtree sizes are summed, and each element's rank
// is derived from its position in the tree. No worker ever waits for
// another: work is handed out through work-assignment trees, so any
// worker can be killed (or descheduled indefinitely) at any moment and
// the survivors still finish the sort in bounded time. On a faultless
// machine the running time is O(N log N / P) with high probability.
//
// Two execution modes are exposed:
//
//   - Sort and SortFunc run on real goroutines over sync/atomic shared
//     state — a usable parallel sort whose workers may be reaped at
//     any time (examples/oskernel demonstrates live reap and respawn).
//   - Simulate runs the same algorithm on a deterministic CRCW PRAM
//     simulator with exact step counts, per-variable contention
//     accounting and crash injection — the research instrument behind
//     EXPERIMENTS.md.
//
// Both modes share one algorithm implementation; only the Proc runtime
// differs. Sorting is stable: equal elements keep their input order
// (the paper's index tie-break).
package wfsort

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"

	"wfsort/internal/chaos"
	"wfsort/internal/core"
	"wfsort/internal/lowcont"
	"wfsort/internal/model"
	"wfsort/internal/native"
	"wfsort/internal/obs"
	"wfsort/internal/pool"
	"wfsort/internal/pram"
	"wfsort/internal/xrand"
)

// Variant selects which of the paper's algorithms runs.
type Variant int

// Algorithm variants.
const (
	// Deterministic is the Section 2 algorithm with deterministic
	// work-assignment trees. Fastest in practice; its pivot tree
	// degenerates on already-sorted inputs.
	Deterministic Variant = iota
	// Randomized is the Section 2 algorithm with the §2.3 randomized
	// work allocation: the pivot tree is O(log N) deep w.h.p. for any
	// input order, on every layout. The default.
	Randomized
	// LowContention is the Section 3 algorithm: sqrt(P) processor
	// groups, winner selection and a duplicated fat tree cut memory
	// contention from O(P) to O(sqrt(P)). It needs at least 4 workers
	// and N >= P; below that it falls back to Randomized.
	LowContention
)

// String returns the variant's mnemonic.
func (v Variant) String() string {
	switch v {
	case Deterministic:
		return "deterministic"
	case Randomized:
		return "randomized"
	case LowContention:
		return "lowcontention"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Layout selects how Sort and SortFunc place shared state in memory
// and hand out work on the native (real-goroutine) runtime. The
// simulator ignores it: Simulate always runs the paper-faithful dense
// layout, so simulated step counts and contention never depend on this
// option.
type Layout int

// Native arena layouts.
const (
	// LayoutSharded is the contention-sharded fast path and the
	// default: cache-line padded hot words, work claimed in blocks so
	// the work-assignment trees' root traffic is amortized, sharded
	// phase-2/3 completion counters that aggregate on read, no
	// accounting key reads, and the output scatter done host-side.
	// Fastest; same wait-freedom, crash tolerance and O(log N)
	// pivot-tree depth as the paper's algorithm.
	LayoutSharded Layout = iota
	// LayoutPadded keeps the paper's per-element claims and operation
	// sequence but aligns structures to cache lines and pads hot words
	// (work-tree tops, the pivot root, counter shards).
	LayoutPadded
	// LayoutFlat is the dense simulator layout run as-is on hardware —
	// the seed behavior, kept as the benchmark baseline.
	LayoutFlat
)

// String returns the layout's mnemonic.
func (l Layout) String() string {
	switch l {
	case LayoutSharded:
		return "sharded"
	case LayoutPadded:
		return "padded"
	case LayoutFlat:
		return "flat"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// Layouts lists every native arena layout, fastest first.
func Layouts() []Layout { return []Layout{LayoutSharded, LayoutPadded, LayoutFlat} }

// Metrics re-exports the run cost report shared by both runtimes.
type Metrics = model.Metrics

// Observer re-exports the wait-free observability plane for the native
// runtime: per-incarnation event rings, phase-latency histograms, a
// Chrome/Perfetto trace exporter (WriteTrace) and a live Snapshot for
// metrics endpoints. Create one per sort with NewObserver, install it
// with WithObserver, and read it after SortFunc returns. Recording is
// wait-free: each goroutine writes only its own preallocated ring, so
// an installed observer never introduces a wait point.
type Observer = obs.Observer

// NewObserver returns an observability plane with default sizing,
// ready to install on one sort via WithObserver.
func NewObserver() *Observer { return obs.New(obs.Config{}) }

// Bits recording which options were set explicitly, so pool-backed
// sorters can reject options that conflict with the pool's fixed
// configuration instead of silently ignoring them.
const (
	setWorkers = 1 << iota
	setVariant
	setLayout
	setSeed
	setObserver
	setSchedule
	setChurn
	setCrashes
	setPool
	setPipeline
	setQueuePolicy
)

type config struct {
	workers     int
	variant     Variant
	layout      Layout
	seed        uint64
	sched       pram.Scheduler     // simulation only
	observer    *obs.Observer      // native only
	churnKills  int                // native only: kill+revive every non-zero worker
	crashFrac   float64            // native only: fail-stop a seeded fraction
	crashWindow int64              // op-ordinal window for crashFrac strikes
	pool        *Pool              // NewSorter only
	pipeDepth   int                // NewPool/NewSorter only: crew's pending-queue bound
	queuePolicy native.QueuePolicy // NewPool/NewSorter only: pipeline queue order
	explicit    int                // set* bits
}

// Option customizes a sort or simulation.
type Option func(*config)

// WithWorkers sets the number of parallel workers (goroutines, or
// simulated processors). Defaults to GOMAXPROCS, capped at the input
// size.
func WithWorkers(p int) Option {
	return func(c *config) { c.workers = p; c.explicit |= setWorkers }
}

// WithVariant selects the algorithm variant. Defaults to Randomized.
func WithVariant(v Variant) Option {
	return func(c *config) { c.variant = v; c.explicit |= setVariant }
}

// WithLayout selects the native arena layout (see Layout). Defaults to
// LayoutSharded. Simulation only ever uses the dense paper layout;
// Simulate ignores this option.
func WithLayout(l Layout) Option {
	return func(c *config) { c.layout = l; c.explicit |= setLayout }
}

// WithSeed fixes the seed behind all randomized choices, making
// simulator runs exactly reproducible. Defaults to 0.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed; c.explicit |= setSeed }
}

// WithObserver installs an observability plane on the native run (see
// Observer). Like the sort runtime itself, one Observer drives at most
// one sort. When nil (the default) the recording hook costs a single
// pointer compare per operation. Native only; Simulate ignores it —
// the simulator's exact metrics come from the machine itself.
func WithObserver(o *Observer) Option {
	return func(c *config) { c.observer = o; c.explicit |= setObserver }
}

// WithSchedule sets the simulated schedule: asynchrony models,
// adversaries and crash injection, built with the constructors in
// wfsort/sim. Simulation only; Sort ignores it. Defaults to the
// faultless synchronous schedule.
func WithSchedule(s pram.Scheduler) Option {
	return func(c *config) { c.sched = s; c.explicit |= setSchedule }
}

// WithChurn kills every worker except worker 0 `kills` times per sort,
// at staggered operation ordinals, reviving each one — the sort always
// completes, having survived (workers-1)*kills mid-flight failures.
// This is the soak-test fault plane: wait-freedom makes the injected
// deaths invisible in the output. Native sorts only; Simulate rejects
// it (use WithSchedule for simulated faults).
func WithChurn(kills int) Option {
	return func(c *config) { c.churnKills = kills; c.explicit |= setChurn }
}

// WithCrashes fail-stops a seeded random fraction of the workers —
// never worker 0, so the sort still completes — at operation ordinals
// drawn from [1, window]; window <= 0 means 64. Crashed workers stay
// dead for the rest of that sort. On a pooled Sorter the workers'
// goroutines survive the unwind, so every sort faces the same fraction
// afresh: the "crash-half" serving regime of EXPERIMENTS.md E22.
// Native sorts only; Simulate rejects it.
func WithCrashes(frac float64, window int64) Option {
	return func(c *config) {
		c.crashFrac = frac
		c.crashWindow = window
		c.explicit |= setCrashes
	}
}

// defaultPipeDepth is the crew's pending-queue bound when WithPipeline
// is not given.
const defaultPipeDepth = 64

// WithPipeline sets how many sorts may wait in the pending queue of a
// pool's crew; further submitters block until a slot frees. Every
// pooled sort runs on one resident phase-pipelined crew: a worker that
// finishes sort k moves straight to sort k+1, gated only by every
// worker having cleared phase 1 of sort k, so the crew never idles
// behind its slowest member at a job boundary. depth < 1 means 1; the
// default is 64. Pools and pooled sorters only — one-shot Sort/SortFunc
// and Simulate have exactly one job, so they reject the option.
func WithPipeline(depth int) Option {
	return func(c *config) {
		if depth < 1 {
			depth = 1
		}
		c.pipeDepth = depth
		c.explicit |= setPipeline
	}
}

// applyOptions folds opts over the defaults and validates everything
// that does not depend on the input size.
func applyOptions(opts []Option) (config, error) {
	c := config{workers: runtime.GOMAXPROCS(0), variant: Randomized, pipeDepth: defaultPipeDepth}
	for _, o := range opts {
		o(&c)
	}
	if c.workers < 1 {
		return c, fmt.Errorf("wfsort: workers must be >= 1, got %d", c.workers)
	}
	if c.layout < LayoutSharded || c.layout > LayoutFlat {
		return c, fmt.Errorf("wfsort: unknown layout %v", c.layout)
	}
	if c.churnKills < 0 {
		return c, fmt.Errorf("wfsort: churn kills must be >= 0, got %d", c.churnKills)
	}
	if c.crashFrac < 0 || c.crashFrac > 1 {
		return c, fmt.Errorf("wfsort: crash fraction must be in [0,1], got %g", c.crashFrac)
	}
	return c, nil
}

func buildConfig(n int, opts []Option) (config, error) {
	c, err := applyOptions(opts)
	if err != nil {
		return c, err
	}
	if c.pool != nil {
		return c, fmt.Errorf("wfsort: WithPool applies to NewSorter, not one-shot sorts")
	}
	if c.explicit&setPipeline != 0 {
		return c, fmt.Errorf("wfsort: WithPipeline applies to NewPool/NewSorter, not one-shot sorts")
	}
	if c.explicit&setQueuePolicy != 0 {
		return c, fmt.Errorf("wfsort: WithQueuePolicy applies to NewPool/NewSorter, not one-shot sorts")
	}
	if c.workers > n {
		c.workers = n // P <= N is the paper's regime; extra workers idle anyway
	}
	return c, nil
}

// adversary builds the per-sort fault plane requested by WithChurn and
// WithCrashes; nil when neither is set. seq varies the crash draw from
// sort to sort on a pooled Sorter.
func (c config) adversary(seq uint64) model.Adversary {
	if c.churnKills <= 0 && c.crashFrac <= 0 {
		return nil
	}
	pl := native.NewPlan()
	if c.churnKills > 0 {
		for pid := 1; pid < c.workers; pid++ {
			for k := 0; k < c.churnKills; k++ {
				// Low, staggered ordinals: even on one CPU a worker that
				// arrives to find all work done has executed a few ops.
				pl.KillAt(pid, int64(2+3*pid+17*k))
			}
			pl.Revive(pid, c.churnKills)
		}
	}
	if c.crashFrac > 0 {
		window := c.crashWindow
		if window <= 0 {
			window = 64
		}
		rng := xrand.New(c.seed ^ (seq+1)*0x9e3779b97f4a7c15)
		for pid := 1; pid < c.workers; pid++ {
			if rng.Float64() < c.crashFrac {
				pl.KillAt(pid, 1+int64(rng.Intn(int(window))))
			}
		}
	}
	return pl
}

// nativeArena builds the allocator and fast-path tuning for one native
// sort: chaos.ArenaFor, whose Layout values mirror this package's, so
// the chaos sweep and experiment E12 run exactly the arenas the library
// does. Simulate always lays out on the dense model.Arena with zero
// tuning, which is what keeps simulated metrics independent of this
// whole mechanism.
func nativeArena(n int, c config) (model.Allocator, core.Tuning) {
	return chaos.ArenaFor(n, c.workers, chaos.Layout(c.layout))
}

// Sort sorts data in place using wait-free parallel workers. It is
// stable. The zero-length and single-element cases return immediately.
func Sort[E cmp.Ordered](data []E, opts ...Option) error {
	return SortFunc(data, func(a, b E) bool { return a < b }, opts...)
}

// SortFunc sorts data in place by the given strict ordering, using
// wait-free parallel workers. Ties are broken by original position, so
// the sort is stable. less must be a strict weak ordering; it is called
// concurrently and must be safe for concurrent use on immutable data.
func SortFunc[E any](data []E, less func(a, b E) bool, opts ...Option) error {
	n := len(data)
	if n < 2 {
		return nil
	}
	c, err := buildConfig(n, opts)
	if err != nil {
		return err
	}
	return sortOnce(data, less, c)
}

// sortOnce is the one-shot native sort: fresh arena, fresh goroutines.
// SortFunc and the pooled Sorter's small-input path both end here.
func sortOnce[E any](data []E, less func(a, b E) bool, c config) error {
	n := len(data)
	input := make([]E, n)
	copy(input, data)
	idxLess := func(i, j int) bool {
		a, b := input[i-1], input[j-1]
		if less(a, b) {
			return true
		}
		if less(b, a) {
			return false
		}
		return i < j
	}

	a, tun := nativeArena(n, c)
	runner, err := newRunner(a, n, c, tun)
	if err != nil {
		return err
	}
	rt := native.New(native.Config{
		P: c.workers, Mem: a.Size(), Seed: c.seed, Less: idxLess,
		Observer: c.observer, Adversary: c.adversary(0),
	})
	runner.seed(rt.Memory())
	if _, err := rt.Run(runner.program()); err != nil {
		return err
	}
	places := runner.places(rt.Memory())
	if c.churnKills > 0 || c.crashFrac > 0 {
		// Worker 0 is never a fault target, so completion is guaranteed;
		// this guards the invariant rather than an expected failure.
		for i, r := range places {
			if r < 1 || r > n {
				return fmt.Errorf("wfsort: sort incomplete (element %d unranked)", i+1)
			}
		}
	}
	applyPermutation(data, input, places, c.workers)
	return nil
}

// applyPermutation moves input[i] to data[places[i]-1], in parallel
// chunks for large inputs (the scatter is the only sequential tail of
// the sort, so it is worth spreading across the same workers).
func applyPermutation[E any](data, input []E, places []int, workers int) {
	const chunk = 16 * 1024
	n := len(input)
	if n < 2*chunk || workers < 2 {
		for i, r := range places {
			data[r-1] = input[i]
		}
		return
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				data[places[i]-1] = input[i]
			}
		}(lo, hi)
	}
	wg.Wait()
}

// SimResult reports one simulated sort.
type SimResult struct {
	// Ranks holds each input element's final 1-based rank.
	Ranks []int
	// Metrics is the exact cost accounting: steps, operations, maximum
	// per-variable contention, stalls, per-phase breakdown.
	Metrics *Metrics
	// TreeDepth is the depth of the pivot tree the run built.
	TreeDepth int
}

// Simulate runs the sort on the deterministic CRCW PRAM simulator and
// returns the ranks together with exact cost metrics. keys supply the
// ordering (ties broken by index); the input is not modified.
func Simulate(keys []int, opts ...Option) (*SimResult, error) {
	n := len(keys)
	if n == 0 {
		return &SimResult{Metrics: &Metrics{}}, nil
	}
	c, err := buildConfig(n, opts)
	if err != nil {
		return nil, err
	}
	if c.churnKills > 0 || c.crashFrac > 0 {
		return nil, fmt.Errorf("wfsort: WithChurn/WithCrashes are native-only; simulate faults with WithSchedule")
	}
	less := func(i, j int) bool {
		a, b := keys[i-1], keys[j-1]
		if a != b {
			return a < b
		}
		return i < j
	}
	var a model.Arena
	runner, err := newRunner(&a, n, c, core.Tuning{})
	if err != nil {
		return nil, err
	}
	m := pram.New(pram.Config{P: c.workers, Mem: a.Size(), Seed: c.seed, Sched: c.sched, Less: less})
	runner.seed(m.Memory())
	met, err := m.Run(runner.program())
	if err != nil {
		return nil, err
	}
	return &SimResult{
		Ranks:     runner.places(m.Memory()),
		Metrics:   met,
		TreeDepth: runner.depth(m.Memory()),
	}, nil
}

// runner abstracts over the two sorter layouts.
type runner struct {
	core *core.Sorter
	lc   *lowcont.Sorter
}

func newRunner(a model.Allocator, n int, c config, tun core.Tuning) (runner, error) {
	switch c.variant {
	case Deterministic:
		return runner{core: core.NewSorterTuned(a, n, core.AllocWAT, tun)}, nil
	case Randomized:
		return runner{core: core.NewSorterTuned(a, n, core.AllocRandomized, tun)}, nil
	case LowContention:
		if c.workers < 4 || n < c.workers {
			// Below the §3 regime the deterministic contention bound
			// O(P) is small anyway; fall back to the Section 2 sort.
			return runner{core: core.NewSorterTuned(a, n, core.AllocRandomized, tun)}, nil
		}
		// The §3 research variant keeps the paper's own contention
		// machinery; of the Section 2 fast-path tuning it takes only the
		// batched work-claim granularity (glue/shuffle LC-WAT jobs span
		// Batch elements), which composes with the paper's machinery
		// without altering it. Zero tuning (simulator, flat/padded
		// layouts) means batch 1, the paper-faithful granularity.
		return runner{lc: lowcont.NewTuned(a, n, c.workers, tun.Batch)}, nil
	default:
		return runner{}, fmt.Errorf("wfsort: unknown variant %v", c.variant)
	}
}

func (r runner) seed(mem []model.Word) {
	if r.core != nil {
		r.core.Seed(mem, r.core.N())
	} else {
		r.lc.Seed(mem)
	}
}

func (r runner) program() model.Program {
	if r.core != nil {
		return r.core.Program()
	}
	return r.lc.Program()
}

func (r runner) places(mem []model.Word) []int {
	if r.core != nil {
		return r.core.Places(mem)
	}
	return r.lc.Places(mem)
}

func (r runner) depth(mem []model.Word) int {
	if r.core != nil {
		return r.core.Depth(mem)
	}
	return r.lc.Depth(mem)
}

// asPoolRunner exposes the underlying sorter through the pooling
// layer's Runner interface: the Section 2 sorter satisfies it directly,
// the §3 sorter through paddedRunner.
func (r runner) asPoolRunner() pool.Runner {
	if r.core != nil {
		return r.core
	}
	return paddedRunner{r.lc}
}

// paddedRunner pools the §3 sorter, which always sorts at capacity: its
// group split and fat-tree samples span every capacity slot, so it has
// no live count and ignores the one Seed is given. runPooled pads its
// comparator instead (padLess).
type paddedRunner struct{ *lowcont.Sorter }

func (r paddedRunner) Seed(mem []model.Word, _ int) { r.Sorter.Seed(mem) }

// padLess orders a capacity-sized sort of n real elements: elements
// past n are virtual pads that compare greater than every real element
// and among themselves by index, so the real elements rank exactly
// 1..n.
func padLess(n int, less func(i, j int) bool) func(i, j int) bool {
	return func(i, j int) bool {
		if i > n || j > n {
			return j > n && (i <= n || i < j)
		}
		return less(i, j)
	}
}

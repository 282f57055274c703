// Package native runs model.Programs on real goroutines with
// sync/atomic shared memory — the "operating systems" realization the
// paper's introduction motivates: sorting threads can be reaped at any
// moment (kill flags) and the wait-free algorithms still complete on the
// surviving goroutines.
//
// Unlike internal/pram there is no global clock: Read/Write/CAS map
// directly onto atomic loads, stores and compare-and-swaps, so a run is
// as fast as the hardware allows and scheduling is whatever the Go
// runtime does. Step counts and exact contention are simulator-only;
// native metrics carry operation counts, CAS-failure counts and wall
// time, and — with an internal/obs Observer installed — per-phase op
// and wall-clock latency breakdowns recorded through wait-free
// per-incarnation event rings.
package native

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfsort/internal/model"
	"wfsort/internal/obs"
	"wfsort/internal/xrand"
)

// Word aliases the shared-memory word type.
type Word = model.Word

// Config describes a native run.
type Config struct {
	// P is the number of worker goroutines (>= 1).
	P int
	// Mem is the shared-memory size in words.
	Mem int
	// Seed determines per-processor RNG streams.
	Seed uint64
	// Less is the input order consulted by Proc.Less; nil compares
	// element indices.
	Less func(i, j int) bool
	// CountOps enables per-processor operation counters (small cost).
	CountOps bool
	// Adversary, when non-nil, is the fault-injection plane: it is
	// consulted before every shared-memory operation with the
	// processor's cumulative op ordinal and may kill or stall it at
	// exact points in its execution (see model.Adversary and Plan). If
	// the adversary also implements Respawner, killed processors may be
	// revived with fresh incarnations once their death has landed.
	Adversary model.Adversary
	// Observer, when non-nil, is the observability plane: each
	// incarnation records phase transitions, CAS failures, faults and
	// periodic op-ordinal snapshots into its own wait-free event ring
	// (see internal/obs), and per-phase latency histograms are merged
	// into the run's Metrics. When nil — the default — the hot path
	// pays a single pointer nil-check per operation (gated by
	// cmd/benchgate). An Observer drives at most one run.
	Observer *obs.Observer
}

// runState is the execution state proc methods touch on every
// shared-memory operation. It is factored out of Runtime so the two
// drivers — the single-use Runtime below and the resident Pipeline in
// pipeline.go, which builds one per job — share one proc
// implementation.
type runState struct {
	mem       []Word
	kill      []atomic.Bool
	ops       []paddedCounter
	p         int
	less      func(i, j int) bool
	countOps  bool
	adversary model.Adversary
	stalls    *atomic.Int64
}

// Runtime executes one Program on P goroutines. Create with New; a
// Runtime is single-use.
type Runtime struct {
	cfg   Config
	st    runState
	ran   bool
	start time.Time

	mu      sync.Mutex
	live    int
	prog    model.Program
	wg      sync.WaitGroup
	root    *xrand.Rand
	respawn int
	deaths  []int   // kills landed per pid (mu)
	opsAt   []int64 // op ordinal each pid's last incarnation died at (mu)
	stalls  atomic.Int64
	onPanic func(pid int, rec any)

	// Elapsed is the wall-clock duration of Run, valid after Run.
	Elapsed time.Duration
}

// paddedCounter avoids false sharing between per-processor counters.
type paddedCounter struct {
	n        int64
	cas      int64
	casFails int64
	_        [5]int64
}

// New builds a runtime.
func New(cfg Config) *Runtime {
	if cfg.P < 1 {
		panic("native: Config.P must be >= 1")
	}
	if cfg.Less == nil {
		cfg.Less = func(i, j int) bool { return i < j }
	}
	r := &Runtime{
		cfg:    cfg,
		deaths: make([]int, cfg.P),
		opsAt:  make([]int64, cfg.P),
	}
	r.st = runState{
		mem:       make([]Word, cfg.Mem),
		kill:      make([]atomic.Bool, cfg.P),
		ops:       make([]paddedCounter, cfg.P),
		p:         cfg.P,
		less:      cfg.Less,
		countOps:  cfg.CountOps,
		adversary: cfg.Adversary,
		stalls:    &r.stalls,
	}
	return r
}

// Memory returns the shared memory. Reading it is only safe before Run
// starts and after Run returns.
func (r *Runtime) Memory() []Word { return r.st.mem }

// Kill marks processor pid for termination: its next shared-memory
// operation unwinds the Program. Safe to call concurrently with Run —
// that is its purpose (reaping a sorting thread mid-run, §1 of the
// paper).
func (r *Runtime) Kill(pid int) { r.st.kill[pid].Store(true) }

// Run executes prog on P goroutines and blocks until all have returned
// or been killed. The returned metrics carry op counts (if enabled),
// kill counts and wall time.
func (r *Runtime) Run(prog model.Program) (*model.Metrics, error) {
	if r.ran {
		return nil, errors.New("native: Runtime.Run called twice")
	}
	r.ran = true
	r.prog = prog
	r.root = xrand.New(r.cfg.Seed)

	var (
		panicMu  sync.Mutex
		panicked error
		killed   atomic.Int64
	)
	r.onPanic = func(pid int, rec any) {
		if _, ok := rec.(model.Killed); ok {
			killed.Add(1)
			return
		}
		panicMu.Lock()
		if panicked == nil {
			panicked = fmt.Errorf("native: processor %d panicked: %v", pid, rec)
		}
		panicMu.Unlock()
	}
	if ob := r.cfg.Observer; ob != nil {
		ob.RunStart(r.cfg.P)
	}
	r.start = time.Now()
	r.mu.Lock()
	for pid := 0; pid < r.cfg.P; pid++ {
		r.spawnLocked(pid, 0)
	}
	r.mu.Unlock()
	r.wg.Wait()
	r.Elapsed = time.Since(r.start)
	if ob := r.cfg.Observer; ob != nil {
		ob.RunEnd()
	}

	met := &model.Metrics{
		P:              r.cfg.P,
		Killed:         int(killed.Load()),
		Respawns:       r.respawn,
		InjectedStalls: r.stalls.Load(),
	}
	if r.cfg.CountOps {
		for i := range r.st.ops {
			met.Ops += atomic.LoadInt64(&r.st.ops[i].n)
			met.CASes += atomic.LoadInt64(&r.st.ops[i].cas)
			met.CASFailures += atomic.LoadInt64(&r.st.ops[i].casFails)
		}
	}
	if ob := r.cfg.Observer; ob != nil {
		ob.MergeInto(met)
	}
	panicMu.Lock()
	defer panicMu.Unlock()
	return met, panicked
}

// spawnLocked starts a goroutine for pid; r.mu must be held. startOps
// is the op ordinal the incarnation resumes counting from — 0 for the
// initial fleet, the predecessor's death ordinal for respawns, so
// adversary strikes target cumulative per-processor op counts.
func (r *Runtime) spawnLocked(pid int, startOps int64) {
	r.live++
	r.wg.Add(1)
	rng := r.root.Fork(uint64(pid) | uint64(r.respawn)<<32)
	pr := &proc{st: &r.st, id: pid, rng: rng, n: startOps}
	if ob := r.cfg.Observer; ob != nil {
		pr.ob = ob.StartIncarnation(pid, startOps)
	}
	go func() {
		defer func() {
			rec := recover()
			if pr.ob != nil {
				pr.ob.End(pr.n)
			}
			r.mu.Lock()
			r.live--
			r.opsAt[pid] = pr.n
			if _, wasKill := rec.(model.Killed); wasKill {
				r.deaths[pid]++
				if rs, ok := r.cfg.Adversary.(Respawner); ok && rs.Respawn(pid, r.deaths[pid]) {
					r.st.kill[pid].Store(false)
					r.respawn++
					r.spawnLocked(pid, pr.n)
				}
			}
			r.mu.Unlock()
			if rec != nil {
				r.onPanic(pid, rec)
			}
			r.wg.Done()
		}()
		r.prog(pr)
	}()
}

// Respawn restarts a previously killed processor id with a fresh
// goroutine running the program from the beginning — the paper's §1
// scenario of spawning a new sorting thread when a processor frees up.
// The wait-free algorithms in this repository are restartable: work
// already completed is skipped through completion marks, so a
// restarted processor simply helps finish what remains.
//
// Respawn is only valid while Run is in flight with at least one live
// worker; it returns an error once the run has completed (there is
// nothing left to help with).
func (r *Runtime) Respawn(pid int) error {
	if pid < 0 || pid >= r.cfg.P {
		return fmt.Errorf("native: respawn pid %d out of range [0,%d)", pid, r.cfg.P)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.ran || r.live == 0 {
		return errors.New("native: respawn needs a run in flight with live workers")
	}
	r.st.kill[pid].Store(false)
	r.respawn++
	r.spawnLocked(pid, r.opsAt[pid])
	return nil
}

// OpsPerProc returns, after a Run with CountOps enabled, the number of
// shared-memory operations each processor executed, summed across
// incarnations — the per-processor quantity the paper's wait-freedom
// lemmas bound, and what the chaos certifier checks against its op
// ceiling.
func (r *Runtime) OpsPerProc() []int64 {
	out := make([]int64, r.cfg.P)
	for i := range out {
		out[i] = atomic.LoadInt64(&r.st.ops[i].n)
	}
	return out
}

// proc implements model.Proc over atomic operations. It is backed by a
// runState, which either a single-use Runtime or a Pipeline job owns.
type proc struct {
	st  *runState
	id  int
	rng *xrand.Rand
	n   int64        // cumulative op ordinal, the adversary's per-processor clock
	ob  *obs.ProcObs // this incarnation's event recorder; nil when unobserved
}

var _ model.Proc = (*proc)(nil)

func (p *proc) ID() int       { return p.id }
func (p *proc) NumProcs() int { return p.st.p }

func (p *proc) pre() {
	if p.st.kill[p.id].Load() {
		p.die()
	}
	p.n++
	if ad := p.st.adversary; ad != nil {
		f := ad.Strike(p.id, p.n)
		switch f.Action {
		case model.FaultKill:
			// Die in place of this operation, exactly as a simulator
			// crash replaces the victim's pending op.
			p.die()
		case model.FaultStall:
			p.st.stalls.Add(1)
			if p.ob != nil {
				p.ob.Stall(p.n, f.StallOps)
			}
			for i := 0; i < f.StallOps; i++ {
				runtime.Gosched()
			}
		case model.FaultBlock:
			// The limit case of a stall: stop advancing but stay live
			// until killed — the fault the obs watchdog exists to
			// catch. Poll the kill flag (never spin-starve a core).
			p.st.stalls.Add(1)
			if p.ob != nil {
				p.ob.Stall(p.n, -1)
			}
			for !p.st.kill[p.id].Load() {
				time.Sleep(200 * time.Microsecond)
			}
			p.die()
		}
	}
	if p.st.countOps {
		atomic.AddInt64(&p.st.ops[p.id].n, 1)
	}
	if p.ob != nil {
		p.ob.Op(p.n)
	}
}

// die records the death (when observed) and unwinds the Program.
func (p *proc) die() {
	if p.ob != nil {
		p.ob.Kill(p.n)
	}
	panic(model.Killed{PID: p.id})
}

func (p *proc) Read(a int) Word {
	p.pre()
	return atomic.LoadInt64(&p.st.mem[a])
}

func (p *proc) Write(a int, v Word) {
	p.pre()
	atomic.StoreInt64(&p.st.mem[a], v)
}

func (p *proc) CAS(a int, old, new Word) bool {
	p.pre()
	ok := atomic.CompareAndSwapInt64(&p.st.mem[a], old, new)
	if p.st.countOps {
		atomic.AddInt64(&p.st.ops[p.id].cas, 1)
		if !ok {
			atomic.AddInt64(&p.st.ops[p.id].casFails, 1)
		}
	}
	if !ok && p.ob != nil {
		p.ob.CASFail(p.n, a)
	}
	return ok
}

func (p *proc) Idle() {
	p.pre()
}

func (p *proc) Less(i, j int) bool {
	if i == j {
		return false
	}
	return p.st.less(i, j)
}

func (p *proc) Rand() *model.Rng { return p.rng }

func (p *proc) Phase(name string) {
	if p.ob != nil {
		p.ob.Phase(name, p.n)
	}
}

package native

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wfsort/internal/engine"
	"wfsort/internal/model"
	"wfsort/internal/xrand"
)

// Pipeline is a resident crew of P worker goroutines that executes a
// bounded queue of independent sort jobs, overlapping them at phase
// granularity: the serving layer's counterpart to the single-use
// Runtime. Between jobs the workers stay parked on their job channels,
// so steady-state sorts pay no goroutine spawns, and a worker killed
// inside one job is back at full strength for the next because only
// the program unwinds, never the goroutine. There is no barrier
// between jobs: the crew never idles behind its slowest worker at a
// job boundary. Each job is an engine phase graph; a worker that
// finishes job k moves straight on to job k+1, gated only by the
// admission rule:
//
//	job k+1 may enter phase 1 once every worker has advanced past
//	phase 1 of job k.
//
// Jobs have disjoint memories, so overlapping them is always safe — the
// gate is a throughput policy (it keeps the crew's cache working set to
// roughly two adjacent jobs and preserves rough job ordering), not a
// correctness requirement.
//
// # Done-skip
//
// Because jobs are declarative phase graphs rather than opaque
// programs, the pipeline knows when a job is globally finished: the
// first worker to run the whole graph to normal completion has, by the
// engine's own gating, observed every phase's completion predicate
// hold, so the output is final and any worker arriving afterwards
// would only re-verify no-ops. Such workers skip the sweep (publishing
// their phase-1 passage directly, which is trivially true of a done
// job). Kills never set the latch — a worker that dies without
// revival, or a job that panics, leaves done unset — and jobs carrying
// an Adversary never skip at all, so deterministic fault plans land
// every scheduled kill and the chaos certifier always measures the
// unskipped path.
//
// # Progress tracking
//
// Progress is a per-worker monotone word prog[pid] = epoch·stride + k,
// where epoch is the job's submission index and k counts completed
// worker phases. The gate only ever compares against enc(epoch-1, 1),
// so a worker publishes exactly the two words the gate can read —
// enc(epoch, 0) at pickup and enc(epoch, 1) when its graph notifies
// completion of the first worker phase — and swallows the later
// notifications. Three rules make the admission gate deadlock-free
// under arbitrary kills:
//
//   - pickup publishes: a worker publishes enc(epoch, 0) the moment it
//     picks a job up, before its own admission wait, so a worker killed
//     without revival in job k still unblocks job k+1's gate when it
//     picks job k+1 up (enc(k+1, 0) > enc(k, 1));
//   - publish is max: a respawned worker re-enters its graph from phase
//     0 and re-notifies from index 0; taking the max keeps the public
//     word monotone while, within one incarnation, notified indices are
//     strictly increasing from 0 (the property tests pin this down);
//   - FIFO per worker: submission sends every job to every worker's
//     queue under one lock, so all workers see jobs in epoch order and
//     the lowest unadmitted epoch only ever waits on workers that are
//     actively running (or already past) the previous job.
//
// Fault semantics within a job match the Runtime's: kills unwind the
// graph, and a Respawner adversary revives the worker with its op
// ordinal carried across incarnations (jobCore.runIncarnations). Each
// job gets its own runState (kill flags, counters), because two jobs
// are concurrently in flight.
//
// # Ordered queue and the dispatcher
//
// Submitted jobs land in a bounded pending queue drained by a single
// dispatcher goroutine. A pluggable QueuePolicy decides, at each
// dispatch, which pending job goes next and which pending jobs to shed
// (ErrDeadlineShed, before they consume a crew slot); a nil policy is
// strict FIFO with no shedding. Epochs — the admission gate's ordering
// — are assigned at dispatch, not submission, so reordering the queue
// never perturbs the gate's invariants: from the workers' point of
// view the dispatcher is just a submitter that happens to choose the
// order. Only the dispatcher sends on the worker channels, so all
// workers still see jobs in identical epoch order (the FIFO rule
// below). Worker channels hold two jobs each: the phase-overlap window
// is at most two adjacent jobs anyway (the admission rule), so deeper
// per-worker buffers would only move jobs out of the scheduler's reach
// earlier for no throughput gain.
type Pipeline struct {
	p        int
	depth    int
	countOps bool
	policy   QueuePolicy
	wall     time.Time // clock base for JobView instants
	jobs     []chan *pipeJob
	workers  sync.WaitGroup
	dispDone chan struct{}

	// qmu guards the pending queue; qcond wakes the dispatcher (queue
	// became non-empty, or closed) and blocked Submits (a slot freed).
	qmu     sync.Mutex
	qcond   *sync.Cond
	pending []*pipeJob
	seq     uint64
	closed  bool

	// epochs is owned by the dispatcher goroutine alone.
	epochs int

	// prog[pid] is worker pid's monotone progress word, written only by
	// that worker (single-writer, so plain atomic stores suffice) and
	// padded so neighbors don't share cache lines. progMu/cond exist
	// only for blocked admissions; waiters is the Dekker flag that tells
	// publishers whether anyone needs a wakeup (publish stores prog and
	// then loads waiters, admit raises waiters and then rereads prog —
	// both sequentially consistent, so one side always sees the other).
	prog    []progWord
	waiters atomic.Int32
	progMu  sync.Mutex
	cond    *sync.Cond
	// minNeed (under progMu) is the smallest progress word any blocked
	// admission is waiting for, maxInt64 when none. allAtLeast is
	// monotone in its argument, so if the smallest need is unsatisfied
	// every larger one is too — publishers skip the broadcast entirely
	// unless the lowest waiter can actually proceed, instead of
	// thundering every blocked worker awake on every publication.
	minNeed int64
}

// progWord pads each worker's progress word to its own cache line.
type progWord struct {
	v atomic.Int64
	_ [7]int64
}

// progStride separates epochs in the progress encoding; any graph has
// far fewer worker phases.
const progStride = 1 << 20

// enc encodes (epoch, completed-phases) as one monotone progress word.
func enc(epoch, k int) int64 { return int64(epoch)*progStride + int64(k) }

// PipeJob describes one phase-graph execution on a pipeline.
type PipeJob struct {
	// Graph is the phase graph every worker runs (core/lowcont sorters
	// expose theirs via Graph()).
	Graph *engine.Graph
	// Mem is the job's shared memory. Concurrent jobs MUST have disjoint
	// memories; the pooling layer's per-job contexts guarantee this.
	Mem []Word
	// Less is the input order consulted by Proc.Less; nil compares
	// element indices.
	Less func(i, j int) bool
	// Seed determines per-worker RNG streams for this job.
	Seed uint64
	// Adversary, when non-nil, is the per-job fault plane; if it also
	// implements Respawner, killed workers re-enter the graph with fresh
	// incarnations.
	Adversary model.Adversary
	// QoS is the job's scheduling envelope, consulted by the pipeline's
	// QueuePolicy. The zero value is "best tier, no deadline".
	QoS JobQoS
	// Traced opts the job into stage-timing capture: the pipeline
	// records its dispatch instant and per-phase completion times
	// (PipeRun.Timing). Recording is wait-free — each worker stores
	// phase-end timestamps into its own slots — and untraced jobs pay
	// nothing beyond this flag test.
	Traced bool
}

// pipeJob is a PipeJob in flight.
type pipeJob struct {
	PipeJob
	jobCore
	epoch int
	// seq, queuedNs and deadlineNs are the scheduler-visible identity
	// (JobView); shedded is set by the dispatcher before it releases the
	// job's WaitGroup, so Wait (which runs after wg.Wait) reads it with
	// a happens-before edge and no atomics.
	seq        uint64
	queuedNs   int64
	deadlineNs int64
	shedded    bool
	// dispatchNs is set by the dispatcher just before it sends the job
	// to the workers (happens-before via the channel sends); endNs is
	// set once by the first Wait to return. Both stay zero on untraced
	// jobs.
	dispatchNs int64
	endNs      int64
	// phaseEnd, on traced jobs, holds per-(worker, phase) completion
	// timestamps: slot pid*numPhases+k is written only by worker pid
	// (single-writer, so a plain atomic store suffices — no CAS loop on
	// the notify path). A respawned incarnation re-notifies from phase
	// 0 and overwrites with later instants, which is exactly the
	// last-completion semantics Timing wants. nil when untraced.
	phaseEnd []atomic.Int64
	st       runState // per-job: overlapping jobs must not share kill flags or counters
	stalls   atomic.Int64
	// done latches once any worker runs the whole graph to normal
	// completion. Every phase's completion predicate held on that
	// worker's way out, so the job's output is final and a worker that
	// picks the job up afterwards may skip its sweep entirely — see the
	// done-skip note in the type comment.
	done atomic.Bool
}

// PipeRun is a submitted job, returned by Submit.
type PipeRun struct {
	pl *Pipeline
	jb *pipeJob

	start time.Time
	// Elapsed is the job's wall-clock duration from submission, valid
	// after Wait. It includes any time spent queued behind earlier jobs.
	Elapsed time.Duration
}

// NewPipeline starts a resident pipelined crew of p workers with the
// default FIFO queue. depth bounds the pending job queue: Submit
// blocks once depth jobs are queued beyond those already committed to
// workers. countOps enables per-job per-worker operation counters.
// Close releases the workers.
func NewPipeline(p, depth int, countOps bool) *Pipeline {
	return NewPipelinePolicy(p, depth, countOps, nil)
}

// NewPipelinePolicy is NewPipeline with a pluggable ordered queue:
// policy decides dispatch order and deadline shedding over the pending
// jobs (nil means strict FIFO, no shedding).
func NewPipelinePolicy(p, depth int, countOps bool, policy QueuePolicy) *Pipeline {
	if p < 1 {
		panic("native: NewPipeline needs p >= 1")
	}
	if depth < 1 {
		depth = 1
	}
	pl := &Pipeline{
		p:        p,
		depth:    depth,
		countOps: countOps,
		policy:   policy,
		wall:     time.Now(),
		jobs:     make([]chan *pipeJob, p),
		prog:     make([]progWord, p),
		dispDone: make(chan struct{}),
	}
	pl.cond = sync.NewCond(&pl.progMu)
	pl.qcond = sync.NewCond(&pl.qmu)
	pl.minNeed = maxInt64
	for pid := range pl.prog {
		pl.prog[pid].v.Store(-1)
	}
	for pid := 0; pid < p; pid++ {
		ch := make(chan *pipeJob, 2)
		pl.jobs[pid] = ch
		pl.workers.Add(1)
		go pl.worker(pid, ch)
	}
	go pl.dispatch()
	return pl
}

// now is the pipeline's monotonic clock: nanoseconds since creation.
func (pl *Pipeline) now() int64 { return time.Since(pl.wall).Nanoseconds() }

// P returns the crew's worker count.
func (pl *Pipeline) P() int { return pl.p }

// Depth returns the pending-queue bound.
func (pl *Pipeline) Depth() int { return pl.depth }

// Submit enqueues a job on the pending queue and returns its handle.
// Submit blocks while the queue is full (depth jobs pending beyond
// those committed to workers) and panics after Close. With the default
// FIFO policy jobs complete in bounded, roughly-submission order; a
// QueuePolicy may reorder or shed them. Call Wait on the returned run
// to collect its metrics.
func (pl *Pipeline) Submit(job PipeJob) *PipeRun {
	if job.Graph == nil {
		panic("native: PipeJob.Graph must be set")
	}
	if job.Less == nil {
		job.Less = func(i, j int) bool { return i < j }
	}
	jb := &pipeJob{PipeJob: job}
	jb.root = xrand.New(job.Seed)
	if job.Traced {
		jb.phaseEnd = make([]atomic.Int64, pl.p*job.Graph.NumWorkerPhases())
	}
	jb.wg.Add(pl.p)
	jb.st = runState{
		mem:       job.Mem,
		kill:      make([]atomic.Bool, pl.p),
		p:         pl.p,
		less:      job.Less,
		countOps:  pl.countOps,
		adversary: job.Adversary,
		stalls:    &jb.stalls,
	}
	if pl.countOps {
		// Only counting procs touch the counters.
		jb.st.ops = make([]paddedCounter, pl.p)
	}

	pl.qmu.Lock()
	for len(pl.pending) >= pl.depth && !pl.closed {
		pl.qcond.Wait()
	}
	if pl.closed {
		pl.qmu.Unlock()
		panic("native: Pipeline.Submit after Close")
	}
	jb.seq = pl.seq
	pl.seq++
	jb.queuedNs = pl.now()
	if dl := job.QoS.Deadline; !dl.IsZero() {
		jb.deadlineNs = dl.Sub(pl.wall).Nanoseconds()
	}
	run := &PipeRun{pl: pl, jb: jb, start: time.Now()}
	pl.pending = append(pl.pending, jb)
	pl.qcond.Broadcast()
	pl.qmu.Unlock()
	return run
}

// view snapshots the job's scheduler-visible metadata.
func (jb *pipeJob) view() JobView {
	return JobView{
		Seq:        jb.seq,
		Class:      jb.QoS.Class,
		Priority:   jb.QoS.Priority,
		EstCost:    jb.QoS.EstCost,
		DeadlineNs: jb.deadlineNs,
		QueuedNs:   jb.queuedNs,
	}
}

// dispatch is the queue-draining goroutine: shed what the policy says
// cannot meet its deadline, pick the next job, assign its epoch, and
// send it to every worker. Being the only sender on the worker
// channels, it preserves the gate's FIFO-per-worker assumption no
// matter how the policy reorders the pending queue.
func (pl *Pipeline) dispatch() {
	var views []JobView
	var shed []*pipeJob
	for {
		pl.qmu.Lock()
		for len(pl.pending) == 0 && !pl.closed {
			pl.qcond.Wait()
		}
		if len(pl.pending) == 0 {
			pl.qmu.Unlock()
			break // closed and drained
		}
		now := pl.now()
		shed = shed[:0]
		if pl.policy != nil {
			// Shed pass first: a doomed job must never reach Pick, let
			// alone a crew slot. Aborted jobs are dispatched regardless —
			// workers skip them at pickup and release their WaitGroup.
			kept := pl.pending[:0]
			for _, jb := range pl.pending {
				if !jb.aborted.Load() && pl.policy.Shed(now, jb.view()) {
					shed = append(shed, jb)
				} else {
					kept = append(kept, jb)
				}
			}
			for i := len(kept); i < len(pl.pending); i++ {
				pl.pending[i] = nil
			}
			pl.pending = kept
		}
		var jb *pipeJob
		if n := len(pl.pending); n > 0 {
			pick := 0
			if pl.policy != nil {
				// Consulted even for a single pending job: Pick doubles as
				// the policy's dispatch notification (queue-wait accounting
				// rides on it), so skipping it would blind the observer
				// exactly when the queue is shallow.
				views = views[:0]
				for _, j := range pl.pending {
					views = append(views, j.view())
				}
				pick = pl.policy.Pick(now, views)
				if pick < 0 || pick >= n {
					pick = 0
				}
			}
			jb = pl.pending[pick]
			copy(pl.pending[pick:], pl.pending[pick+1:])
			pl.pending[n-1] = nil
			pl.pending = pl.pending[:n-1]
		}
		pl.qcond.Broadcast() // slots freed: wake blocked Submits
		pl.qmu.Unlock()

		for _, s := range shed {
			// The job never reached a worker: release its Wait directly.
			// shedded is written before the final Done, so Wait observes
			// it through the WaitGroup's happens-before edge.
			s.shedded = true
			s.wg.Add(-pl.p)
		}
		if jb == nil {
			continue
		}
		jb.epoch = pl.epochs
		pl.epochs++
		if jb.Traced {
			jb.dispatchNs = pl.now()
		}
		for pid := 0; pid < pl.p; pid++ {
			pl.jobs[pid] <- jb
		}
	}
	for _, ch := range pl.jobs {
		close(ch)
	}
	close(pl.dispDone)
}

// Run is Submit followed by Wait — the drop-in serial usage.
func (pl *Pipeline) Run(job PipeJob) (*model.Metrics, error) {
	return pl.Submit(job).Wait()
}

// Close releases the crew's workers after draining every queued job.
// Concurrent Submits must have returned; Waits on submitted jobs remain
// valid (the dispatcher dispatches all pending work — a QueuePolicy may
// still shed doomed jobs during the drain — and workers finish it
// before exiting). Idempotent.
func (pl *Pipeline) Close() {
	pl.qmu.Lock()
	if pl.closed {
		pl.qmu.Unlock()
		return
	}
	pl.closed = true
	pl.qcond.Broadcast()
	pl.qmu.Unlock()
	<-pl.dispDone
	pl.workers.Wait()
}

// worker is one resident goroutine: pick up each job in epoch order,
// publish pickup progress, wait for admission, run the graph through
// the shared incarnation loop with per-phase progress notifications.
func (pl *Pipeline) worker(pid int, ch <-chan *pipeJob) {
	defer pl.workers.Done()
	for jb := range ch {
		// Pickup publishes before the admission wait: even if this worker
		// then dies permanently inside the job, the next pickup's
		// publication unblocks later epochs' gates.
		pl.publish(pid, enc(jb.epoch, 0))
		pl.admit(jb.epoch)
		switch {
		case jb.Adversary == nil && jb.done.Load():
			// A peer already ran the whole graph to completion: every
			// phase's completion predicate held, the output is final, and
			// this worker's sweep would be all no-ops. Skip it, but still
			// publish phase-1 passage — trivially true of a finished job —
			// so the next epoch's gate sees this worker advance.
			pl.publish(pid, enc(jb.epoch, 1))
		case !jb.aborted.Load():
			epoch := jb.epoch
			graph := jb.Graph
			nphase := graph.NumWorkerPhases()
			completed := jb.runIncarnations(&jb.st, pid, func(p model.Proc) {
				graph.RunNotify(p, func(k int) {
					// The gate only reads enc(epoch, 1); later phase
					// completions would be dead publications.
					if k == 0 {
						pl.publish(pid, enc(epoch, 1))
					}
					if jb.phaseEnd != nil {
						jb.phaseEnd[pid*nphase+k].Store(pl.now())
					}
				})
			}, jb.Adversary)
			if completed {
				jb.done.Store(true)
			}
		}
		jb.wg.Done()
	}
}

// publish raises worker pid's progress word to v (monotone max — a
// respawned incarnation re-notifies from phase 0) and wakes admission
// waiters, if any are blocked. Only worker pid writes prog[pid], so
// the max and the store need no lock; the mutex is taken solely to
// order the broadcast against a waiter parking on the condvar.
func (pl *Pipeline) publish(pid int, v int64) {
	if v <= pl.prog[pid].v.Load() {
		return
	}
	pl.prog[pid].v.Store(v)
	if pl.waiters.Load() > 0 {
		pl.progMu.Lock()
		if pl.allAtLeast(pl.minNeed) {
			// Waiters past this need proceed; any that remain blocked
			// re-register their needs before re-parking.
			pl.minNeed = maxInt64
			pl.cond.Broadcast()
		}
		pl.progMu.Unlock()
	}
}

const maxInt64 = 1<<63 - 1

// admit blocks until every worker has advanced past phase 1 of the
// previous epoch: prog[q] >= enc(epoch-1, 1) for all q. A worker's own
// pickup publication already satisfies this (enc(epoch, 0) > enc(epoch-1, 1)),
// so it only ever waits on its peers.
func (pl *Pipeline) admit(epoch int) {
	if epoch == 0 {
		return
	}
	need := enc(epoch-1, 1)
	if pl.allAtLeast(need) { // lock-free fast path: gate already open
		return
	}
	pl.progMu.Lock()
	pl.waiters.Add(1)
	// Recheck after raising the waiter flag: a publish that lands
	// between the check and the Wait either sees the flag (and queues a
	// broadcast behind our mutex hold) or happened before the flag was
	// raised, in which case this reread observes it.
	for !pl.allAtLeast(need) {
		if need < pl.minNeed {
			pl.minNeed = need
		}
		pl.cond.Wait()
	}
	pl.waiters.Add(-1)
	pl.progMu.Unlock()
}

func (pl *Pipeline) allAtLeast(need int64) bool {
	for i := range pl.prog {
		if pl.prog[i].v.Load() < need {
			return false
		}
	}
	return true
}

// Wait blocks until every worker has finished (or permanently died in)
// the job and returns its metrics: kill, respawn and stall counts, plus
// op counts when the pipeline counts ops.
func (r *PipeRun) Wait() (*model.Metrics, error) {
	r.jb.wg.Wait()
	r.Elapsed = time.Since(r.start)
	if r.jb.Traced && r.jb.endNs == 0 {
		r.jb.endNs = r.pl.now()
	}
	if r.jb.shedded {
		// The queue policy dropped the job before dispatch: no worker
		// ran, no ops were executed, the metrics are structurally zero.
		return &model.Metrics{P: r.pl.p}, ErrDeadlineShed
	}
	met := &model.Metrics{
		P:              r.pl.p,
		Killed:         int(r.jb.killed.Load()),
		Respawns:       int(r.jb.respawns.Load()),
		InjectedStalls: r.jb.stalls.Load(),
	}
	if r.pl.countOps {
		for i := range r.jb.st.ops {
			met.Ops += atomic.LoadInt64(&r.jb.st.ops[i].n)
			met.CASes += atomic.LoadInt64(&r.jb.st.ops[i].cas)
			met.CASFailures += atomic.LoadInt64(&r.jb.st.ops[i].casFails)
		}
	}
	r.jb.panicMu.Lock()
	defer r.jb.panicMu.Unlock()
	return met, r.jb.panicked
}

// Abort kills every worker of this job and suppresses revival, so Wait
// returns promptly with the sort abandoned. The job's kill flags are
// its own, so aborting one job never touches the jobs pipelined around
// it; a job aborted while still queued is skipped at pickup. The job's
// memory is left mid-flight garbage — the pooling layer resets contexts
// before reuse. Abort after Wait is a no-op.
func (r *PipeRun) Abort() {
	r.jb.aborted.Store(true)
	// Aborted must be visible before the kills land (see the respawn
	// race note in jobCore.runIncarnations).
	for pid := range r.jb.st.kill {
		r.jb.st.kill[pid].Store(true)
	}
}

// Aborted reports whether Abort was called on this run.
func (r *PipeRun) Aborted() bool { return r.jb.aborted.Load() }

// PhaseDur is one worker phase's crew-wide duration in a JobTiming.
type PhaseDur struct {
	Name  string
	DurNs int64
}

// JobTiming is a traced job's stage attribution, valid after Wait.
type JobTiming struct {
	// QueueWaitNs is submission → dispatch: time spent in the pending
	// queue behind earlier jobs and the scheduler's choices.
	QueueWaitNs int64
	// RunNs is dispatch → last worker done: the crew-execution wall.
	RunNs int64
	// Phases attributes RunNs across the graph's worker phases: each
	// entry's duration is the gap between successive crew-wide phase
	// completions (max across workers), so the entries sum to roughly
	// RunNs minus the final workers' unwind.
	Phases []PhaseDur
	// Shed marks a job dropped by the queue policy before dispatch;
	// only QueueWaitNs is meaningful.
	Shed bool
}

// Timing returns the job's stage attribution. Valid after Wait, on
// jobs submitted with Traced set; untraced jobs return a zero value.
func (r *PipeRun) Timing() JobTiming {
	jb := r.jb
	if !jb.Traced {
		return JobTiming{}
	}
	if jb.shedded {
		return JobTiming{QueueWaitNs: r.pl.now() - jb.queuedNs, Shed: true}
	}
	t := JobTiming{
		QueueWaitNs: jb.dispatchNs - jb.queuedNs,
		RunNs:       jb.endNs - jb.dispatchNs,
	}
	names := jb.Graph.WorkerPhaseNames()
	nphase := len(names)
	prev := jb.dispatchNs
	for k := 0; k < nphase; k++ {
		// Crew-wide completion of phase k: the latest worker's stamp.
		// Workers that skipped the job (done-skip) left their slots
		// zero; a phase nobody stamped reports zero duration.
		var end int64
		for pid := 0; pid < r.pl.p; pid++ {
			if v := jb.phaseEnd[pid*nphase+k].Load(); v > end {
				end = v
			}
		}
		dur := int64(0)
		if end > prev {
			dur = end - prev
			prev = end
		}
		t.Phases = append(t.Phases, PhaseDur{Name: names[k], DurNs: dur})
	}
	return t
}

// OpsPerProc returns, after Wait on a counting pipeline, the number of
// shared-memory operations each worker executed on this job, summed
// across incarnations — the per-processor quantity the chaos certifier
// checks against its wait-freedom op ceiling. A pipeline that does not
// count ops reports zeros.
func (r *PipeRun) OpsPerProc() []int64 {
	out := make([]int64, r.pl.p)
	for i := range r.jb.st.ops {
		out[i] = atomic.LoadInt64(&r.jb.st.ops[i].n)
	}
	return out
}

// jobCore is a job's fault and incarnation machinery: its RNG root,
// completion group, abort latch, fault counters and first-panic record.
type jobCore struct {
	root     *xrand.Rand
	wg       sync.WaitGroup
	aborted  atomic.Bool
	killed   atomic.Int64
	respawns atomic.Int64

	panicMu  sync.Mutex
	panicked error
}

// runIncarnations executes prog for worker pid against st, re-entering
// the program after each landed kill the adversary revives, with the
// pid's op ordinal carried across incarnations. The worker's own
// goroutine manages its pid's deaths, so no lock is needed:
// incarnations of a pid are serialized by construction. It reports
// whether the worker ran the program to normal completion — false when
// it died without revival or panicked — which is the fact the crew
// uses to mark a job globally done.
func (jc *jobCore) runIncarnations(st *runState, pid int, prog model.Program, adversary model.Adversary) bool {
	var startOps int64
	deaths := 0
	for {
		pr := proc{
			st:  st,
			id:  pid,
			rng: jc.root.Fork(uint64(pid) | uint64(deaths)<<32),
			n:   startOps,
		}
		rec := runProg(&pr, prog)
		if rec == nil {
			return true
		}
		if _, wasKill := rec.(model.Killed); !wasKill {
			jc.panicMu.Lock()
			if jc.panicked == nil {
				jc.panicked = fmt.Errorf("native: processor %d panicked: %v", pid, rec)
			}
			jc.panicMu.Unlock()
			return false
		}
		jc.killed.Add(1)
		deaths++
		rs, ok := adversary.(Respawner)
		if !ok || !rs.Respawn(pid, deaths) {
			return false
		}
		st.kill[pid].Store(false)
		// An Abort between the kill landing and the flag clearing above
		// must still win: its aborted store precedes its kill stores, so
		// either our clear lost the race (the next op dies and the check
		// below ends the loop then) or we observe aborted here.
		if jc.aborted.Load() {
			return false
		}
		jc.respawns.Add(1)
		startOps = pr.n
	}
}

// runProg runs the program to completion and returns the recovered
// panic value, if any (model.Killed for a landed kill).
func runProg(pr *proc, prog model.Program) (rec any) {
	defer func() { rec = recover() }()
	prog(pr)
	return nil
}

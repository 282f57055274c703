package native

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"wfsort/internal/core"
	"wfsort/internal/model"
)

// pipeSortJob lays out a fresh sorter for keys and returns the job and
// the sorter (for reading places back).
func pipeSortJob(keys []int, seed uint64) (PipeJob, *core.Sorter, []Word) {
	var a model.Arena
	s := core.NewSorter(&a, len(keys), core.AllocRandomized)
	mem := make([]Word, a.Size())
	s.Seed(mem, s.N())
	less := func(i, j int) bool {
		ki, kj := keys[i-1], keys[j-1]
		if ki != kj {
			return ki < kj
		}
		return i < j
	}
	return PipeJob{Graph: s.Graph(), Mem: mem, Less: less, Seed: seed}, s, mem
}

func checkRanks(t *testing.T, keys []int, s *core.Sorter, mem []Word) {
	t.Helper()
	places := s.Places(mem)
	out := make([]int, len(keys))
	for i, r := range places {
		if r < 1 || r > len(keys) {
			t.Fatalf("element %d: rank %d out of range", i+1, r)
		}
		out[r-1] = keys[i]
	}
	if !sort.IntsAreSorted(out) {
		t.Fatalf("output not sorted: %v", out)
	}
}

// TestPipelineReuse runs many successive sorts on one crew, each waited
// before the next is submitted, and verifies every one — the
// resident-worker contract the pool depends on.
func TestPipelineReuse(t *testing.T) {
	pl := NewPipeline(4, 1, true)
	defer pl.Close()
	for run := 0; run < 10; run++ {
		n := 64 + run*37
		keys := make([]int, n)
		for i := range keys {
			keys[i] = (i * 131) % 97
		}
		job, s, mem := pipeSortJob(keys, uint64(run))
		met, err := pl.Run(job)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if met.Ops == 0 {
			t.Fatalf("run %d: no ops counted", run)
		}
		checkRanks(t, keys, s, mem)
	}
}

// TestPipelineOverlap submits a stream of jobs without waiting between
// them — the whole point of the pipeline — and verifies every sort.
func TestPipelineOverlap(t *testing.T) {
	pl := NewPipeline(4, 2, true)
	defer pl.Close()

	const jobs = 8
	type inflight struct {
		run  *PipeRun
		s    *core.Sorter
		mem  []Word
		keys []int
	}
	var flights []inflight
	for j := 0; j < jobs; j++ {
		n := 48 + j*61
		keys := make([]int, n)
		for i := range keys {
			keys[i] = (i*2654435761 + j*97) % 509
		}
		job, s, mem := pipeSortJob(keys, uint64(j))
		flights = append(flights, inflight{run: pl.Submit(job), s: s, mem: mem, keys: keys})
	}
	for j, f := range flights {
		met, err := f.run.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
		if met.Ops == 0 {
			t.Fatalf("job %d: no ops counted", j)
		}
		checkRanks(t, f.keys, f.s, f.mem)
	}
	// Graph-level certification: every job's memory must satisfy all
	// phase completion predicates.
	for j, f := range flights {
		if name := f.s.Graph().FirstUndone(f.mem); name != "" {
			t.Fatalf("job %d: phase %q not complete", j, name)
		}
	}
}

// TestPipelineFaults overlaps jobs while one of them is driven by a
// kill/revive plan; the faulted job must complete with deaths and
// respawns accounted, and its neighbours must be untouched.
func TestPipelineFaults(t *testing.T) {
	pl := NewPipeline(4, 2, true)
	defer pl.Close()

	keysA := make([]int, 350)
	for i := range keysA {
		keysA[i] = (i * 7919) % 223
	}
	keysB := make([]int, 280)
	for i := range keysB {
		keysB[i] = (i * 131) % 97
	}

	plan := NewPlan()
	for pid := 1; pid < 4; pid++ {
		plan.KillAt(pid, int64(3*pid)).Revive(pid, 1)
	}
	jobA, sA, memA := pipeSortJob(keysA, 11)
	jobA.Adversary = plan
	jobB, sB, memB := pipeSortJob(keysB, 12)

	runA := pl.Submit(jobA)
	runB := pl.Submit(jobB)
	metA, err := runA.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if metA.Killed != 3 || metA.Respawns != 3 {
		t.Fatalf("killed=%d respawns=%d, want 3 and 3", metA.Killed, metA.Respawns)
	}
	metB, err := runB.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if metB.Killed != 0 || metB.Respawns != 0 {
		t.Fatalf("faultless neighbour saw killed=%d respawns=%d", metB.Killed, metB.Respawns)
	}
	checkRanks(t, keysA, sA, memA)
	checkRanks(t, keysB, sB, memB)
}

// TestPipelineCrashHalfNoRevive kills half the crew permanently inside
// one job of a pipelined stream: survivors must finish that job, and —
// because only the graph unwound, not the goroutines — the following
// jobs run at full strength and the admission gate never deadlocks on
// the dead workers.
func TestPipelineCrashHalfNoRevive(t *testing.T) {
	pl := NewPipeline(6, 2, true)
	defer pl.Close()

	mk := func(n, stride, mod int) []int {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = (i * stride) % mod
		}
		return keys
	}
	keys := [][]int{mk(300, 31, 59), mk(260, 17, 83), mk(340, 13, 71)}

	plan := NewPlan()
	for pid := 3; pid < 6; pid++ {
		plan.KillAt(pid, int64(2+pid))
	}
	var runs []*PipeRun
	var sorters []*core.Sorter
	var mems [][]Word
	for j, k := range keys {
		job, s, mem := pipeSortJob(k, uint64(20+j))
		if j == 0 {
			job.Adversary = plan
		}
		runs = append(runs, pl.Submit(job))
		sorters = append(sorters, s)
		mems = append(mems, mem)
	}
	for j, run := range runs {
		met, err := run.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
		if j == 0 && met.Killed != 3 {
			t.Fatalf("job 0: killed=%d, want 3", met.Killed)
		}
		if j > 0 && met.Killed != 0 {
			t.Fatalf("job %d: killed=%d, want 0", j, met.Killed)
		}
		checkRanks(t, keys[j], sorters[j], mems[j])
	}
}

// TestPipelineAbort aborts one job of a stream; its Wait must return
// promptly with Aborted set and the surrounding jobs must come out
// sorted.
func TestPipelineAbort(t *testing.T) {
	pl := NewPipeline(4, 2, true)
	defer pl.Close()

	mk := func(n int) []int {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = (i * 2654435761) % 1009
		}
		return keys
	}
	keysA, keysB, keysC := mk(400), mk(4096), mk(380)

	jobA, sA, memA := pipeSortJob(keysA, 31)
	jobB, _, _ := pipeSortJob(keysB, 32)
	jobC, sC, memC := pipeSortJob(keysC, 33)

	runA := pl.Submit(jobA)
	runB := pl.Submit(jobB)
	runC := pl.Submit(jobC)
	runB.Abort()
	if _, err := runB.Wait(); err != nil {
		t.Fatal(err)
	}
	if !runB.Aborted() {
		t.Fatal("runB.Aborted() = false after Abort")
	}
	if _, err := runA.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := runC.Wait(); err != nil {
		t.Fatal(err)
	}
	checkRanks(t, keysA, sA, memA)
	checkRanks(t, keysC, sC, memC)
}

// TestPipelineNotifyMonotonePerIncarnation is the phase-epoch property
// test: under deterministic kill/respawn schedules, the sequence of
// phase-completion indices a worker notifies is, within each
// incarnation, strictly increasing from 0 — a killed worker's next
// incarnation re-enters the graph from the top. The recorded stream per
// worker must therefore parse as at most 1+respawns(pid) strictly
// increasing runs, each starting at 0, and the never-killed worker's
// final run must reach the last phase.
func TestPipelineNotifyMonotonePerIncarnation(t *testing.T) {
	for _, tc := range []struct {
		seed  uint64
		kills map[int]int64 // pid -> kill ordinal (revived once)
	}{
		{seed: 1, kills: map[int]int64{1: 5, 2: 900, 3: 40}},
		{seed: 2, kills: map[int]int64{1: 2, 3: 3000}},
		{seed: 3, kills: map[int]int64{2: 77, 3: 78, 1: 400}},
	} {
		keys := make([]int, 500)
		for i := range keys {
			keys[i] = (i*48271 + int(tc.seed)) % 337
		}
		var a model.Arena
		s := core.NewSorter(&a, len(keys), core.AllocRandomized)
		less := func(i, j int) bool {
			ki, kj := keys[i-1], keys[j-1]
			if ki != kj {
				return ki < kj
			}
			return i < j
		}
		plan := NewPlan()
		for pid, op := range tc.kills {
			plan.KillAt(pid, op).Revive(pid, 1)
		}
		var mu sync.Mutex
		notified := make([][]int, 4)
		rt := New(Config{P: 4, Mem: a.Size(), Seed: tc.seed, Less: less, Adversary: plan})
		s.Seed(rt.Memory(), s.N())
		met, err := rt.Run(func(p model.Proc) {
			pid := p.ID()
			s.Graph().RunNotify(p, func(k int) {
				mu.Lock()
				notified[pid] = append(notified[pid], k)
				mu.Unlock()
			})
		})
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		last := s.Graph().NumWorkerPhases() - 1
		for pid := 0; pid < 4; pid++ {
			runs := 0
			prev := -1
			for _, k := range notified[pid] {
				if k == 0 && prev != -1 {
					runs++
					prev = 0
					continue
				}
				if k != prev+1 {
					t.Fatalf("seed %d pid %d: notify sequence %v not strictly increasing runs from 0",
						tc.seed, pid, notified[pid])
				}
				prev = k
			}
			if len(notified[pid]) > 0 {
				runs++
			}
			maxRuns := 1
			if _, killed := tc.kills[pid]; killed {
				maxRuns = 2 // one revival per kill in these schedules
			}
			if runs > maxRuns {
				t.Fatalf("seed %d pid %d: %d incarnation runs (max %d): %v",
					tc.seed, pid, runs, maxRuns, notified[pid])
			}
		}
		// pid 0 is never struck: it must have walked the whole graph.
		n0 := notified[0]
		if len(n0) == 0 || n0[len(n0)-1] != last {
			t.Fatalf("seed %d: unkilled pid 0 ended at %v, want final phase %d", tc.seed, n0, last)
		}
		if met.Respawns == 0 {
			t.Fatalf("seed %d: expected respawns", tc.seed)
		}
	}
}

// TestPipelinePanics pins the constructor and submission guard rails.
func TestPipelinePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("p<1", func() { NewPipeline(0, 1, false) })
	pl := NewPipeline(2, 1, false)
	expectPanic("nil graph", func() { pl.Submit(PipeJob{Mem: make([]Word, 8)}) })
	pl.Close()
	pl.Close() // idempotent
	expectPanic("submit after close", func() {
		job, _, _ := pipeSortJob([]int{3, 1, 2}, 1)
		pl.Submit(job)
	})
}

// testPolicy is a minimal QueuePolicy for seam tests: lowest Priority
// tier first (Seq tie-break), shedding any job whose deadline already
// passed.
type testPolicy struct{}

func (testPolicy) Shed(now int64, j JobView) bool {
	return j.DeadlineNs != 0 && j.DeadlineNs <= now
}

func (testPolicy) Pick(now int64, pending []JobView) int {
	best := 0
	for i, j := range pending {
		b := pending[best]
		if j.Priority < b.Priority || (j.Priority == b.Priority && j.Seq < b.Seq) {
			best = i
		}
	}
	return best
}

// TestPipelinePolicyReorders proves the policy reorders the pending
// queue. A blocker job parks the single worker inside its comparator,
// bounding the committed window at exactly four jobs (one running, two
// in the worker channel, one in the dispatcher's hand) no matter how
// the goroutines interleave. Five low-priority jobs and one
// high-priority job are then queued; when the blocker releases, at
// least two low-priority jobs are still pending alongside the
// high-priority one, so the policy must dispatch — and with P=1,
// complete — the high-priority job before them: "hi" cannot be last.
func TestPipelinePolicyReorders(t *testing.T) {
	pl := NewPipelinePolicy(1, 16, false, testPolicy{})
	defer pl.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	blocker, _, _ := pipeSortJob(mkN(96), 7)
	innerLess := blocker.Less
	blocker.Less = func(i, j int) bool {
		once.Do(func() { close(started) })
		<-release
		return innerLess(i, j)
	}

	const slow = 5
	jobs := make([]PipeJob, 0, slow+1)
	for j := 0; j < slow; j++ {
		job, _, _ := pipeSortJob(mkN(300), uint64(j))
		job.QoS = JobQoS{Class: "lo", Priority: 5}
		jobs = append(jobs, job)
	}
	hiJob, s, mem := pipeSortJob(mkN(120), 99)
	hiJob.QoS = JobQoS{Class: "hi", Priority: 0}
	jobs = append(jobs, hiJob)

	blockRun := pl.Submit(blocker)
	<-started // the worker is parked inside the blocker's comparator
	runs := make([]*PipeRun, 0, len(jobs))
	for _, job := range jobs {
		runs = append(runs, pl.Submit(job))
	}
	close(release)
	if _, err := blockRun.Wait(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	// Dispatch order is the epoch order (assigned by the dispatcher, not
	// perturbed by Wait-wakeup scheduling): the high-priority job must
	// have been dispatched before at least one low-priority job.
	hiEpoch, maxLoEpoch := -1, -1
	for i, run := range runs {
		if _, err := run.Wait(); err != nil {
			t.Fatalf("%s: %v", jobs[i].QoS.Class, err)
		}
		if jobs[i].QoS.Class == "hi" {
			hiEpoch = run.jb.epoch
		} else if run.jb.epoch > maxLoEpoch {
			maxLoEpoch = run.jb.epoch
		}
	}
	if hiEpoch < 0 || maxLoEpoch < 0 {
		t.Fatalf("missing epochs: hi=%d maxLo=%d", hiEpoch, maxLoEpoch)
	}
	if hiEpoch > maxLoEpoch {
		t.Fatalf("high-priority job dispatched last (epoch %d) despite pending low-priority jobs (max epoch %d)",
			hiEpoch, maxLoEpoch)
	}
	checkRanks(t, mkN(120), s, mem)
}

func mkN(n int) []int {
	keys := make([]int, n)
	for i := range keys {
		keys[i] = (i * 48271) % 7919
	}
	return keys
}

// TestPipelineShedNeverTouchesCrew queues a job with an already-expired
// deadline behind a running job: its Wait must return ErrDeadlineShed,
// its op counters must be exactly zero (no worker ever picked it up),
// and the jobs around it must complete sorted.
func TestPipelineShedNeverTouchesCrew(t *testing.T) {
	pl := NewPipelinePolicy(2, 8, true, testPolicy{})
	defer pl.Close()

	keysA := mkN(4000)
	jobA, sA, memA := pipeSortJob(keysA, 41)
	runA := pl.Submit(jobA)

	doomed, _, _ := pipeSortJob(mkN(300), 42)
	doomed.QoS = JobQoS{Class: "doomed", Deadline: time.Now().Add(-time.Second)}
	runDoomed := pl.Submit(doomed)

	keysC := mkN(350)
	jobC, sC, memC := pipeSortJob(keysC, 43)
	runC := pl.Submit(jobC)

	met, err := runDoomed.Wait()
	if !errors.Is(err, ErrDeadlineShed) {
		t.Fatalf("doomed job: err = %v, want ErrDeadlineShed", err)
	}
	if met.Ops != 0 || met.Killed != 0 || met.Respawns != 0 {
		t.Fatalf("shed job has non-zero metrics: %+v", met)
	}
	for pid, ops := range runDoomed.OpsPerProc() {
		if ops != 0 {
			t.Fatalf("shed job executed %d ops on worker %d", ops, pid)
		}
	}
	if _, err := runA.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := runC.Wait(); err != nil {
		t.Fatal(err)
	}
	checkRanks(t, keysA, sA, memA)
	checkRanks(t, keysC, sC, memC)
}

// TestPipelineMeetableDeadlineNotShed submits jobs whose deadlines are
// comfortably in the future: none may be shed, all must sort.
func TestPipelineMeetableDeadlineNotShed(t *testing.T) {
	pl := NewPipelinePolicy(2, 8, false, testPolicy{})
	defer pl.Close()
	for j := 0; j < 6; j++ {
		keys := mkN(200 + j*37)
		job, s, mem := pipeSortJob(keys, uint64(50+j))
		job.QoS = JobQoS{Deadline: time.Now().Add(time.Minute)}
		if _, err := pl.Submit(job).Wait(); err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
		checkRanks(t, keys, s, mem)
	}
}

package native

import (
	"errors"
	"time"
)

// ErrDeadlineShed is returned by PipeRun.Wait for a job the pipeline's
// queue policy dropped before dispatch: its deadline provably could not
// be met, so it never consumed a crew slot and no worker executed a
// single operation on its behalf. The serving layer maps it to a 504
// issued from the queue, never from a worker.
var ErrDeadlineShed = errors.New("native: job shed from the queue (deadline unmeetable)")

// JobQoS is the quality-of-service envelope a submitter may attach to
// a PipeJob. The zero value means "no class, best priority tier, no
// deadline" — exactly the pre-QoS behavior.
type JobQoS struct {
	// Class names the traffic class for per-class accounting.
	Class string
	// Priority is the strict-priority tier: 0 is most urgent, larger
	// is later. Ordering between tiers is the queue policy's business.
	Priority int
	// EstCost is a service-cost estimate used for shortest-job-first
	// tie-breaks within a tier (the serving layer passes the number of
	// keys the sort will actually run at). 0 means unknown.
	EstCost int64
	// Deadline, when non-zero, is the instant after which completing
	// the job is worthless; the queue policy may shed the job once the
	// deadline provably cannot be met.
	Deadline time.Time
}

// JobView is the scheduler-visible snapshot of one queued job. All
// instants are nanoseconds on the pipeline's own monotonic clock
// (0 = pipeline creation), so policies are pure functions of integers
// and stay byte-for-byte deterministic under replay.
type JobView struct {
	// Seq is the job's submission ordinal, unique and increasing.
	Seq uint64
	// Class, Priority and EstCost copy the job's JobQoS.
	Class    string
	Priority int
	EstCost  int64
	// DeadlineNs is the job's deadline on the pipeline clock, 0 when
	// the job has none.
	DeadlineNs int64
	// QueuedNs is the instant the job entered the queue.
	QueuedNs int64
}

// QueuePolicy orders a Pipeline's pending job queue. The dispatcher
// consults it under the queue lock from a single goroutine, so
// implementations need no internal synchronization for the decision
// itself (counters they export may still be read concurrently).
//
// A nil policy is strict FIFO with no shedding — the pre-QoS pipeline.
type QueuePolicy interface {
	// Shed reports whether the queued job should be dropped unserved:
	// its Wait returns ErrDeadlineShed and no worker ever touches it.
	// Called for every pending job before each dispatch decision, so a
	// shed job is dropped before it can consume a crew slot.
	Shed(now int64, j JobView) bool
	// Pick returns the index into pending of the job to dispatch next.
	// pending is non-empty and in submission order. An out-of-range
	// return is treated as 0 (FIFO) rather than crashing the crew.
	Pick(now int64, pending []JobView) int
}

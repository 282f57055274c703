package loadgen

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"wfsort/internal/wire"
)

// Outcome classifies one issued request's fate.
type Outcome int

const (
	// OutcomeOK is a 200 whose body verified (right length, sorted,
	// same key multiset by sum/xor aggregate).
	OutcomeOK Outcome = iota
	// OutcomeShed is documented backpressure: 429 (at capacity) or
	// 503 (draining).
	OutcomeShed
	// OutcomeDeadline is a 504 — admitted but aborted by the server's
	// per-request deadline.
	OutcomeDeadline
	// OutcomeError is a transport failure or unexpected status.
	OutcomeError
	// OutcomeUnsorted is a 200 whose body failed verification — the
	// one outcome that is never acceptable at any load.
	OutcomeUnsorted
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeShed:
		return "shed"
	case OutcomeDeadline:
		return "deadline"
	case OutcomeError:
		return "error"
	case OutcomeUnsorted:
		return "unsorted"
	}
	return "unknown"
}

// ReqResult is one issued request's record.
type ReqResult struct {
	Class, Client int
	// PlannedNs is the trace's issue offset; IssuedNs the measured one.
	// Their difference is generator lag, reported so an overloaded
	// client machine can't masquerade as server latency.
	PlannedNs, IssuedNs int64
	LatencyNs           int64
	Status              int
	Outcome             Outcome
	// TraceID is the end-to-end trace ID this request was stamped with
	// ("lg-<index>"); /trace/{id} on the server resolves it to the
	// server-attributed span.
	TraceID string
}

// RunResult is a completed run: one ReqResult per issued request, in
// trace order, plus the measured wall time.
type RunResult struct {
	Trace   *Trace
	Results []ReqResult
	WallNs  int64
}

// Run executes the trace open-loop against target: each request fires
// at its planned offset from run start whether or not earlier ones
// have answered, from its own goroutine. Cancel ctx to stop issuing
// early; already-issued requests still complete and are recorded
// (their contexts are not canceled — tearing down in-flight work is
// the server's drain path, not the generator's job).
func Run(ctx context.Context, t *Trace, target Target) *RunResult {
	results := make([]ReqResult, len(t.Reqs))
	issued := 0
	var wg sync.WaitGroup
	start := time.Now()
	for i := range t.Reqs {
		r := &t.Reqs[i]
		if d := time.Duration(r.AtNs) - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		issued++
		wg.Add(1)
		go func(i int, r *PlannedReq) {
			defer wg.Done()
			results[i] = issueOne(t, i, r, target, start)
		}(i, r)
	}
	wg.Wait()
	return &RunResult{Trace: t, Results: results[:issued], WallNs: time.Since(start).Nanoseconds()}
}

func issueOne(t *Trace, i int, r *PlannedReq, target Target, start time.Time) ReqResult {
	c := &t.Spec.Classes[r.Class]
	keys := r.Keys(c.KeySpace)
	sent := wire.LedgerOf(keys)
	// Every request is stamped with a deterministic trace ID so a run's
	// records cross-reference the server's /trace surface directly.
	traceID := fmt.Sprintf("lg-%d", i)
	ctx := WithTraceID(context.Background(), traceID)
	issuedAt := time.Since(start)
	sorted, status, err := target.Sort(ctx, c.Name, keys)
	lat := time.Since(start) - issuedAt
	res := ReqResult{
		Class:     r.Class,
		Client:    r.Client,
		PlannedNs: r.AtNs,
		IssuedNs:  issuedAt.Nanoseconds(),
		LatencyNs: lat.Nanoseconds(),
		Status:    status,
		TraceID:   traceID,
	}
	switch {
	case err != nil:
		res.Outcome = OutcomeError
	case status == 200:
		res.Outcome = verifySorted(sorted, sent)
	case status == 429 || status == 503:
		res.Outcome = OutcomeShed
	case status == 504:
		res.Outcome = OutcomeDeadline
	default:
		res.Outcome = OutcomeError
	}
	return res
}

// verifySorted checks non-decreasing order and the multiset ledger of
// what was sent (length included) — O(n), no allocation, cheap enough
// to keep on during capacity sweeps where a per-request map would
// perturb the measurement.
func verifySorted(got []int64, sent wire.Ledger) Outcome {
	if !slices.IsSorted(got) || wire.LedgerOf(got) != sent {
		return OutcomeUnsorted
	}
	return OutcomeOK
}

package loadgen

import (
	"context"
	"net/http"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"wfsort/internal/wire"
)

// fakeTarget answers every request by actually sorting (or corrupting)
// the keys, with a configurable status schedule — the pure-logic twin
// of a real server.
type fakeTarget struct {
	calls   atomic.Int64
	status  func(call int64) int
	corrupt bool
	delay   time.Duration
}

func (f *fakeTarget) Sort(ctx context.Context, class string, keys []int64) ([]int64, int, error) {
	call := f.calls.Add(1)
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	st := http.StatusOK
	if f.status != nil {
		st = f.status(call)
	}
	if st != http.StatusOK {
		return nil, st, nil
	}
	out := append([]int64(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if f.corrupt && len(out) > 0 {
		out[0]++
	}
	return out, st, nil
}

func quickTrace(t *testing.T, rate float64, horizonMs float64) *Trace {
	t.Helper()
	tr, err := BuildTrace(&Spec{
		Seed: 3, HorizonMs: horizonMs,
		Classes: []ClassSpec{{
			Name:     "c",
			Arrival:  ArrivalSpec{Dist: DistDet, Rate: rate},
			Size:     SizeSpec{Dist: SizeFixed, N: 16},
			KeySpace: 8,
			Clients:  2,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunAllOK(t *testing.T) {
	tr := quickTrace(t, 500, 200)
	ft := &fakeTarget{}
	res := Run(context.Background(), tr, ft)
	if len(res.Results) != len(tr.Reqs) {
		t.Fatalf("issued %d of %d", len(res.Results), len(tr.Reqs))
	}
	rep := BuildReport(res)
	if rep.Totals.OK != len(tr.Reqs) || rep.Totals.Errors+rep.Totals.Unsorted+rep.Totals.Shed != 0 {
		t.Fatalf("totals: %+v", rep.Totals)
	}
	if rep.Totals.Fairness < 0.99 {
		t.Fatalf("round-robin clients must be perfectly fair, got %v", rep.Totals.Fairness)
	}
	// Open-loop issue instants track the plan.
	for _, r := range res.Results {
		if r.IssuedNs < r.PlannedNs {
			t.Fatalf("request issued %dns before its plan", r.PlannedNs-r.IssuedNs)
		}
	}
}

func TestRunDetectsCorruption(t *testing.T) {
	tr := quickTrace(t, 300, 100)
	res := Run(context.Background(), tr, &fakeTarget{corrupt: true})
	rep := BuildReport(res)
	if rep.Totals.Unsorted == 0 {
		t.Fatal("corrupted bodies not detected")
	}
	if rep.Totals.OK != 0 {
		t.Fatalf("corrupted bodies counted OK: %+v", rep.Totals)
	}
}

func TestRunClassifiesStatuses(t *testing.T) {
	tr := quickTrace(t, 400, 100)
	ft := &fakeTarget{status: func(call int64) int {
		switch call % 4 {
		case 0:
			return http.StatusTooManyRequests
		case 1:
			return http.StatusServiceUnavailable
		case 2:
			return http.StatusGatewayTimeout
		default:
			return http.StatusOK
		}
	}}
	rep := BuildReport(Run(context.Background(), tr, ft))
	n := len(tr.Reqs)
	if rep.Totals.OK+rep.Totals.Shed+rep.Totals.Deadline != n || rep.Totals.Shed == 0 || rep.Totals.Deadline == 0 {
		t.Fatalf("classification off: %+v (n=%d)", rep.Totals, n)
	}
}

func TestRunCancelStopsIssuing(t *testing.T) {
	tr := quickTrace(t, 100, 10_000) // 1000 planned over 10s
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res := Run(ctx, tr, &fakeTarget{})
	if len(res.Results) >= len(tr.Reqs)/2 {
		t.Fatalf("cancel did not stop the generator: %d of %d issued", len(res.Results), len(tr.Reqs))
	}
}

func TestVerifySorted(t *testing.T) {
	sent := wire.LedgerOf([]int64{3, 1, 2, 2})
	if got := verifySorted([]int64{1, 2, 2, 3}, sent); got != OutcomeOK {
		t.Fatalf("valid response judged %v", got)
	}
	if got := verifySorted([]int64{1, 2, 3, 2}, sent); got != OutcomeUnsorted {
		t.Fatal("out-of-order response passed")
	}
	if got := verifySorted([]int64{1, 2, 3}, sent); got != OutcomeUnsorted {
		t.Fatal("short response passed")
	}
	// Same order, different multiset (sum-preserving swap caught by xor).
	if got := verifySorted([]int64{1, 1, 3, 3}, sent); got != OutcomeUnsorted {
		t.Fatal("multiset change passed")
	}
}

package wfsort

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"wfsort/internal/native"
)

// fifoShedPolicy sheds expired deadlines and otherwise keeps FIFO —
// the minimal policy exercising both hooks through the public API.
type fifoShedPolicy struct{}

func (fifoShedPolicy) Shed(now int64, j JobView) bool {
	return j.DeadlineNs != 0 && j.DeadlineNs < now
}
func (fifoShedPolicy) Pick(now int64, pending []JobView) int { return 0 }

func TestWithQueuePolicyValidation(t *testing.T) {
	p, err := NewPool(WithQueuePolicy(fifoShedPolicy{}))
	if err != nil {
		t.Fatalf("queue policy on a default-depth pool rejected: %v", err)
	}
	p.Close()
	if _, err := NewPool(WithPipeline(4), WithQueuePolicy(nil)); err == nil {
		t.Fatal("nil queue policy accepted")
	}
	if err := Sort([]int{3, 1, 2}, WithQueuePolicy(fifoShedPolicy{})); err == nil {
		t.Fatal("one-shot sort accepted WithQueuePolicy")
	}
	p, err = NewPool(WithWorkers(2), WithPipeline(4), WithQueuePolicy(fifoShedPolicy{}))
	if err != nil {
		t.Fatalf("valid pipelined pool rejected: %v", err)
	}
	p.Close()
}

// TestPooledSortDeadlineShed drives the whole stack through the public
// API: a pooled, pipelined sorter with a shedding policy returns
// ErrDeadlineShed for a job whose deadline already passed, leaves the
// input untouched, and keeps sorting afterwards.
func TestPooledSortDeadlineShed(t *testing.T) {
	s, err := NewSorter[int](WithWorkers(2), WithPipeline(4), WithQueuePolicy(fifoShedPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mk := func(n int, seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(500)
		}
		return out
	}

	// Big enough to take the pooled pipeline path (> FreshCutoff).
	data := mk(300, 1)
	orig := append([]int(nil), data...)
	ctx := WithJobQoS(context.Background(), JobQoS{
		Class:    "doomed",
		Deadline: time.Now().Add(-time.Second),
	})
	if err := s.SortContext(ctx, data); !errors.Is(err, ErrDeadlineShed) {
		t.Fatalf("expired-deadline sort returned %v, want ErrDeadlineShed", err)
	}
	for i := range data {
		if data[i] != orig[i] {
			t.Fatal("shed sort modified its input")
		}
	}

	// The crew is unharmed: a normal sort on the same pool succeeds.
	data = mk(300, 2)
	if err := s.Sort(data); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(data) {
		t.Fatal("post-shed sort produced unsorted output")
	}

	// A generous deadline is never shed.
	data = mk(300, 3)
	ctx = WithJobQoS(context.Background(), JobQoS{Deadline: time.Now().Add(time.Hour)})
	if err := s.SortContext(ctx, data); err != nil {
		t.Fatalf("meetable deadline shed: %v", err)
	}
	if !sort.IntsAreSorted(data) {
		t.Fatal("unsorted output")
	}
}

// TestJobQoSEstCostDefault checks the context envelope reaches the
// queue policy with EstCost defaulted to the request size n.
func TestJobQoSEstCostDefault(t *testing.T) {
	seen := make(chan JobView, 1)
	p, err := NewPool(WithWorkers(2), WithPipeline(4), WithQueuePolicy(captPolicy{seen}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s, err := NewSorterFunc[int](func(a, b int) bool { return a < b }, WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int, 300)
	for i := range data {
		data[i] = 300 - i
	}
	ctx := WithJobQoS(context.Background(), JobQoS{Class: "lat", Priority: 2})
	if err := s.SortContext(ctx, data); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-seen:
		if v.Class != "lat" || v.Priority != 2 {
			t.Fatalf("policy saw %+v, want class lat priority 2", v)
		}
		if v.EstCost != 300 {
			t.Fatalf("EstCost = %d, want n = 300, the size the sort runs at", v.EstCost)
		}
	default:
		t.Fatal("policy never saw the job")
	}
}

// captPolicy records the first JobView it ever sees. The capture runs
// in Shed, which the dispatcher runs over every queued job before each
// pick.
type captPolicy struct{ seen chan JobView }

func (c captPolicy) Shed(now int64, j native.JobView) bool {
	select {
	case c.seen <- j:
	default:
	}
	return false
}
func (captPolicy) Pick(now int64, pending []native.JobView) int { return 0 }

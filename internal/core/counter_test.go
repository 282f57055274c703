package core

import (
	"testing"

	"wfsort/internal/model"
	"wfsort/internal/native"
	"wfsort/internal/pram"
	"wfsort/internal/xrand"
)

func TestShardedCounterZeroValueIsDisabled(t *testing.T) {
	var c ShardedCounter
	if c.Enabled() {
		t.Fatal("zero value must be disabled")
	}
	m := pram.New(pram.Config{P: 1, Mem: 1})
	met, err := m.Run(func(p model.Proc) {
		c.Add(p, 5)
		if c.Sum(p) != 0 {
			panic("disabled Sum must be 0")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.Ops != 0 {
		t.Fatalf("disabled counter cost %d shared ops, want 0", met.Ops)
	}
}

func TestShardedCounterAddAndSum(t *testing.T) {
	const shards, p = 4, 8
	var a model.Arena
	c := NewShardedCounter(&a, "test", shards)
	if !c.Enabled() {
		t.Fatal("allocated counter must be enabled")
	}
	m := pram.New(pram.Config{P: p, Mem: a.Size()})
	_, err := m.Run(func(pr model.Proc) {
		c.Add(pr, model.Word(pr.ID()+1))
	})
	if err != nil {
		t.Fatal(err)
	}
	// With p > shards the adds race read-modify-write within a shard,
	// but under the synchronous schedule each pid runs its two-op pair
	// in distinct steps deterministically; the host sum must equal the
	// aggregate of whatever survived, and here nothing is lost because
	// no two pids share a step on the same shard word at the same time.
	want := c.HostSum(m.Memory())
	var total model.Word
	for i := 0; i < shards; i++ {
		total += m.Memory()[c.slots.At(i)]
	}
	if want != total {
		t.Fatalf("HostSum = %d, shard total = %d", want, total)
	}
	if want == 0 {
		t.Fatal("all increments lost")
	}
}

// TestTunedSorterCounterTotals runs the fully tuned fast path and
// checks the CAS-install accounting: with shards >= P every shard is
// single-writer, so a completed run must have counted exactly one
// phase-2 install and one phase-3 install per element. (With fewer
// shards the totals may undercount — the lossy mode the counter's doc
// comment allows — which is why this test pins the exact regime.)
func TestTunedSorterCounterTotals(t *testing.T) {
	const n, p = 600, 8
	rng := xrand.New(99)
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(n / 2)
	}
	for _, alloc := range []Alloc{AllocWAT, AllocRandomized} {
		arena := native.NewArena(native.Padded)
		s := NewSorterTuned(arena, n, alloc, Tuning{
			Batch: 8, SkipKeyRead: true, Shards: p, HostShuffle: true,
		})
		m := pram.New(pram.Config{P: p, Mem: arena.Size(), Seed: 7, Less: lessFor(keys)})
		s.Seed(m.Memory(), s.N())
		if _, err := m.Run(s.Program()); err != nil {
			t.Fatalf("alloc=%v: %v", alloc, err)
		}
		got := s.Places(m.Memory())
		for i, want := range wantRanks(keys) {
			if got[i] != want {
				t.Fatalf("alloc=%v: element %d rank %d, want %d", alloc, i+1, got[i], want)
			}
		}
		sum, place := s.CounterTotals(m.Memory())
		if sum != n || place != n {
			t.Fatalf("alloc=%v: counter totals sum=%d place=%d, want %d each", alloc, sum, place, n)
		}
	}
}

// TestTunedMatchesUntunedResults pins that tuning changes costs, never
// results: same input, same ranks, for a spread of batch sizes.
func TestTunedMatchesUntunedResults(t *testing.T) {
	const n, p = 500, 6
	rng := xrand.New(4)
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(50)
	}
	want := wantRanks(keys)
	for _, batch := range []int{1, 3, 16, 128} {
		var a model.Arena
		s := NewSorterTuned(&a, n, AllocRandomized, Tuning{Batch: batch, HostShuffle: true})
		m := pram.New(pram.Config{P: p, Mem: a.Size(), Seed: 11, Less: lessFor(keys)})
		s.Seed(m.Memory(), s.N())
		if _, err := m.Run(s.Program()); err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		got := s.Places(m.Memory())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: element %d rank %d, want %d", batch, i+1, got[i], want[i])
			}
		}
	}
}

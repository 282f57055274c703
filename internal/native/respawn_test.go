package native

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"wfsort/internal/core"
	"wfsort/internal/model"
)

// TestRespawnHelpsFinish kills a worker mid-run and respawns it; the
// respawned worker must participate (its ops count) and the run must
// complete.
func TestRespawnHelpsFinish(t *testing.T) {
	const p = 4
	rt := New(Config{P: p, Mem: 1, CountOps: true})
	var restarted atomic.Int64
	started := make(chan struct{})   // worker 0's first incarnation is up
	respawned := make(chan struct{}) // controller finished kill+respawn
	go func() {
		defer close(respawned)
		<-started
		rt.Kill(0)
		// Wait until the kill lands (worker 0 unwinds) before reviving.
		for {
			rt.mu.Lock()
			live := rt.live
			rt.mu.Unlock()
			if live == p-1 {
				break
			}
			time.Sleep(10 * time.Microsecond)
		}
		if err := rt.Respawn(0); err != nil {
			t.Errorf("Respawn: %v", err)
		}
	}()
	met, err := rt.Run(func(pr model.Proc) {
		if pr.ID() == 0 {
			if restarted.Add(1) == 1 {
				// First incarnation: signal the controller and spin
				// until killed.
				close(started)
				for {
					pr.Idle()
				}
			}
			// Second incarnation: do one op and finish.
			pr.Write(0, 1)
			return
		}
		// Other workers block until the controller has respawned worker
		// 0, then wait for its write.
		<-respawned
		for pr.Read(0) != 1 {
		}
	})
	<-respawned
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if met.Killed != 1 {
		t.Errorf("killed = %d, want 1", met.Killed)
	}
	if restarted.Load() != 2 {
		t.Errorf("worker 0 ran %d times, want 2", restarted.Load())
	}
}

// layoutCase is one native arena layout with its tuning, replicating
// the WithLayout mapping (chaos.ArenaFor, which wfsort.nativeArena
// resolves through) so in-package tests cover the same configurations.
type layoutCase struct {
	name  string
	alloc model.Allocator
	tun   core.Tuning
}

func layoutCases(n, workers int) []layoutCase {
	batch := n / (4 * workers)
	if batch > 128 {
		batch = 128
	}
	if batch < 1 {
		batch = 1
	}
	return []layoutCase{
		{"sharded", NewArena(Padded), core.Tuning{
			Batch: batch, SkipKeyRead: true, Shards: min(workers, 8), HostShuffle: true,
		}},
		{"padded", NewArena(Padded), core.Tuning{}},
		{"flat", &model.Arena{}, core.Tuning{}},
	}
}

// certBound mirrors chaos.Bound (which this package cannot import —
// chaos imports native): the certified per-processor op ceiling, the
// paper's O(N log N / P) bound at the wait-free worst case P = 1 times
// the measured constant 12.
func certBound(n int) int64 {
	return 12 * (int64(n)*int64(bits.Len(uint(n))) + int64(n) + 256)
}

// hostRanks computes each element's expected 1-based rank host-side,
// ties broken by index.
func hostRanks(keys []int) []int {
	ids := make([]int, len(keys))
	for i := range ids {
		ids[i] = i + 1
	}
	sort.SliceStable(ids, func(a, b int) bool { return keys[ids[a]-1] < keys[ids[b]-1] })
	ranks := make([]int, len(keys))
	for pos, id := range ids {
		ranks[id-1] = pos + 1
	}
	return ranks
}

func testKeys(n int, seed int64) []int {
	keys := make([]int, n)
	v := uint64(seed)*2654435761 + 1
	for i := range keys {
		v = v*6364136223846793005 + 1442695040888963407
		keys[i] = int(v % uint64(4*n))
	}
	return keys
}

// phase3Adversary kills its victim at the victim's first shared-memory
// operation inside phase 3 (armed by the phase tap below, from the
// victim's own goroutine) and grants it one respawn. killed needs no
// atomicity — it is only touched under the pid == victim short-circuit,
// i.e. from the victim's serialized incarnations.
type phase3Adversary struct {
	victim int
	armed  atomic.Bool
	killed bool
}

func (a *phase3Adversary) Strike(pid int, op int64) model.Fault {
	if pid == a.victim && !a.killed && a.armed.Load() {
		a.killed = true
		return model.Fault{Action: model.FaultKill}
	}
	return model.Fault{}
}

func (a *phase3Adversary) Respawn(pid, deaths int) bool { return deaths <= 1 }

// phaseTap forwards model.Proc and arms the adversary when the victim
// announces a phase.
type phaseTap struct {
	model.Proc
	adv   *phase3Adversary
	phase string
}

func (t phaseTap) Phase(name string) {
	t.Proc.Phase(name)
	if name == t.phase && t.Proc.ID() == t.adv.victim {
		t.adv.armed.Store(true)
	}
}

// TestRespawnDuringPhase3AllLayouts kills a worker at its first
// operation inside find_place — after the pivot tree is built, the
// phase whose completion marks the respawned incarnation must re-walk —
// and lets the adversary revive it, on every arena layout. The sort
// must finish correctly with the death and respawn accounted, and every
// processor must stay under the certified op ceiling.
func TestRespawnDuringPhase3AllLayouts(t *testing.T) {
	const n, p = 512, 4
	keys := testKeys(n, 3)
	want := hostRanks(keys)
	for _, lc := range layoutCases(n, p) {
		t.Run(lc.name, func(t *testing.T) {
			s := core.NewSorterTuned(lc.alloc, n, core.AllocRandomized, lc.tun)
			adv := &phase3Adversary{victim: 1}
			rt := New(Config{
				P: p, Mem: lc.alloc.Size(), Seed: 7, CountOps: true,
				Less: func(i, j int) bool {
					a, b := keys[i-1], keys[j-1]
					if a != b {
						return a < b
					}
					return i < j
				},
				Adversary: adv,
			})
			s.Seed(rt.Memory(), s.N())
			prog := s.Program()
			met, err := rt.Run(func(pr model.Proc) {
				prog(phaseTap{Proc: pr, adv: adv, phase: "3:place"})
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if met.Killed != 1 || met.Respawns != 1 {
				t.Errorf("killed=%d respawns=%d, want 1/1", met.Killed, met.Respawns)
			}
			for i, r := range s.Places(rt.Memory()) {
				if r != want[i] {
					t.Fatalf("element %d placed %d, want %d", i+1, r, want[i])
				}
			}
			bound := certBound(n)
			for pid, ops := range rt.OpsPerProc() {
				if ops > bound {
					t.Errorf("pid %d executed %d ops, over the ceiling %d", pid, ops, bound)
				}
			}
		})
	}
}

// TestKillAllButOneEveryLayout schedules the harshest permitted quorum
// — every processor except 0 dies at a staggered early ordinal — on
// every arena layout. The lone mandated survivor must finish the sort
// alone, each victim must stop at exactly its scheduled ordinal, and
// the survivor must stay under the certified per-processor op ceiling.
func TestKillAllButOneEveryLayout(t *testing.T) {
	const n, p = 512, 4
	keys := testKeys(n, 5)
	want := hostRanks(keys)
	for _, lc := range layoutCases(n, p) {
		t.Run(lc.name, func(t *testing.T) {
			s := core.NewSorterTuned(lc.alloc, n, core.AllocRandomized, lc.tun)
			plan := NewPlan()
			for pid := 1; pid < p; pid++ {
				plan.KillAt(pid, int64(20*pid+5))
			}
			rt := New(Config{
				P: p, Mem: lc.alloc.Size(), Seed: 11, CountOps: true,
				Less: func(i, j int) bool {
					a, b := keys[i-1], keys[j-1]
					if a != b {
						return a < b
					}
					return i < j
				},
				Adversary: plan,
			})
			s.Seed(rt.Memory(), s.N())
			met, err := rt.Run(s.Program())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if met.Killed != p-1 {
				t.Fatalf("killed = %d, want %d", met.Killed, p-1)
			}
			for i, r := range s.Places(rt.Memory()) {
				if r != want[i] {
					t.Fatalf("element %d placed %d, want %d", i+1, r, want[i])
				}
			}
			ops := rt.OpsPerProc()
			for pid := 1; pid < p; pid++ {
				if wantOps := int64(20*pid + 4); ops[pid] != wantOps {
					t.Errorf("victim %d executed %d ops, want exactly %d", pid, ops[pid], wantOps)
				}
			}
			if bound := certBound(n); ops[0] > bound {
				t.Errorf("survivor executed %d ops, over the ceiling %d", ops[0], bound)
			}
		})
	}
}

func TestRespawnAfterRunRejected(t *testing.T) {
	rt := New(Config{P: 2, Mem: 1})
	if _, err := rt.Run(func(model.Proc) {}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Respawn(0); err == nil {
		t.Error("respawn after completion accepted")
	}
}

func TestRespawnBadPID(t *testing.T) {
	rt := New(Config{P: 2, Mem: 1})
	if err := rt.Respawn(7); err == nil {
		t.Error("out-of-range pid accepted")
	}
}

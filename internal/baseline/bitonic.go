package baseline

import (
	"math/bits"

	"wfsort/internal/model"
	"wfsort/internal/wat"
)

// bitonicRound is one (k, j) stage of Batcher's network over width
// cells: every index i with partner l = i XOR j, l > i, is a
// compare-exchange, ascending iff i&k == 0.
type bitonicRound struct {
	k, j int
}

// bitonicRounds enumerates the network's rounds for a power-of-two
// width: log w · (log w + 1) / 2 of them.
func bitonicRounds(width int) []bitonicRound {
	var rounds []bitonicRound
	for k := 2; k <= width; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			rounds = append(rounds, bitonicRound{k: k, j: j})
		}
	}
	return rounds
}

// bitonicNet holds the shared cells of a bitonic network run. Cells
// hold element ids (1..n); Empty (0) is the +infinity padding that
// fills the width up to a power of two and sinks to the high end.
type bitonicNet struct {
	n     int
	width int
	cells model.Region
}

func newBitonicNet(a *model.Arena, n int) bitonicNet {
	if n < 1 {
		panic("baseline: bitonic needs n >= 1")
	}
	width := ceilPow2(n)
	return bitonicNet{n: n, width: width, cells: a.Named("cells", width)}
}

// seed loads the identity arrangement: cell i holds element i+1, pads
// hold Empty (+infinity).
func (b bitonicNet) seed(mem []Word) {
	for i := 0; i < b.n; i++ {
		mem[b.cells.At(i)] = Word(i + 1)
	}
}

// greater orders cell contents: Empty is +infinity, everything else by
// the input order with index tie-breaks.
func greater(p model.Proc, a, b Word) bool {
	if a == model.Empty {
		return b != model.Empty
	}
	if b == model.Empty {
		return false
	}
	return p.Less(int(b), int(a))
}

// compareExchange applies one comparator in place: after it, cell lo <=
// cell hi when asc (and the reverse otherwise). In-place update is the
// classic synchronous-network formulation; it is NOT safe against a
// crash between the two writes, which is why the robust variant uses
// compareExchangeInto over double-buffered generations instead.
func (b bitonicNet) compareExchange(p model.Proc, lo, hi int, asc bool) {
	x := p.Read(b.cells.At(lo))
	y := p.Read(b.cells.At(hi))
	if asc == greater(p, x, y) && x != y {
		p.Write(b.cells.At(lo), y)
		p.Write(b.cells.At(hi), x)
	}
}

// compareExchangeInto applies one comparator reading from src and
// writing both outputs into dst. Because src is immutable during the
// round, the job is idempotent under re-execution and harmless under a
// crash between the writes — the property the Kanellakis–Shvartsman
// simulation needs from each simulated PRAM step.
func compareExchangeInto(p model.Proc, src, dst model.Region, lo, hi int, asc bool) {
	x := p.Read(src.At(lo))
	y := p.Read(src.At(hi))
	if asc == greater(p, x, y) {
		x, y = y, x
	}
	p.Write(dst.At(lo), x)
	p.Write(dst.At(hi), y)
}

// comparator returns the c-th comparator of a round: the pair (i, i^j)
// and its direction. Comparators are indexed 0..width/2-1.
func (r bitonicRound) comparator(c int) (lo, hi int, asc bool) {
	// Enumerate the i with i&j == 0 bit pattern: insert a zero bit at
	// position log2(j) into c.
	jb := bits.TrailingZeros(uint(r.j))
	low := c & (r.j - 1)
	i := (c>>jb)<<(jb+1) | low
	return i, i | r.j, i&r.k == 0
}

// Output reads the sorted element ids from the cells after a run.
func (b bitonicNet) output(mem []Word) []int {
	ids := make([]int, 0, b.n)
	for i := 0; i < b.width; i++ {
		if v := mem[b.cells.At(i)]; v != model.Empty {
			ids = append(ids, int(v))
		}
	}
	return ids
}

// BitonicBarrier is the classic synchronous-PRAM bitonic sort: static
// comparator assignment per round, a barrier between rounds. It is not
// wait-free — a single crash hangs the barrier and loses comparators.
type BitonicBarrier struct {
	net     bitonicNet
	rounds  []bitonicRound
	barrier *Barrier
	p       int
}

// NewBitonicBarrier lays out the network for n elements and p
// processors.
func NewBitonicBarrier(a *model.Arena, n, p int) *BitonicBarrier {
	net := newBitonicNet(a, n)
	return &BitonicBarrier{
		net:     net,
		rounds:  bitonicRounds(net.width),
		barrier: NewBarrier(a, p),
		p:       p,
	}
}

// Seed loads the input arrangement; call before running.
func (s *BitonicBarrier) Seed(mem []Word) { s.net.seed(mem) }

// Program returns the sort. Every processor handles a static stripe of
// comparators each round and then waits at the barrier.
func (s *BitonicBarrier) Program() model.Program {
	return func(p model.Proc) {
		var w Waiter
		half := s.net.width / 2
		for _, r := range s.rounds {
			for c := p.ID(); c < half; c += s.p {
				lo, hi, asc := r.comparator(c)
				s.net.compareExchange(p, lo, hi, asc)
			}
			s.barrier.Wait(p, &w)
		}
	}
}

// Output reads the sorted element ids after a run.
func (s *BitonicBarrier) Output(mem []Word) []int { return s.net.output(mem) }

// Rounds returns the number of network rounds (O(log^2 N)).
func (s *BitonicBarrier) Rounds() int { return len(s.rounds) }

// BitonicRobust is the transformation-based fault-tolerant sort of
// §1.1: every network round is executed as a certified write-all over
// its comparators, using a fresh Work Assignment Tree per round. A
// processor advances to round r+1 only when round r's WAT root is DONE,
// which certifies every comparator of round r has executed — the
// fail-stop PRAM simulation of Kanellakis–Shvartsman [32,33]. Total
// cost is O(log^2 N) rounds x O(log N) write-all overhead =
// O(log^3 N), against O(log N) for the paper's algorithm.
//
// Like its sources, this simulation is correct in the synchronous
// fail-stop model: a processor that crashes simply stops. Under
// arbitrary asynchrony a delayed processor could re-execute a round-r
// comparator after round r+1 has begun, which is exactly why the fully
// asynchronous transformations of Anderson–Woll and Buss et al. [6,16]
// need extra machinery (and an extra log factor) — the point the
// paper's related-work section makes. The experiments exercise it only
// under synchronous schedules with crash injection.
type BitonicRobust struct {
	net    bitonicNet
	gen    [2]model.Region // double-buffered cell generations
	rounds []bitonicRound
	wats   []*wat.WAT
}

// NewBitonicRobust lays out the network, the second cell generation and
// one WAT per round.
func NewBitonicRobust(a *model.Arena, n int) *BitonicRobust {
	net := newBitonicNet(a, n)
	rounds := bitonicRounds(net.width)
	wats := make([]*wat.WAT, len(rounds))
	for i := range wats {
		wats[i] = wat.New(a, max(net.width/2, 1))
	}
	return &BitonicRobust{
		net:    net,
		gen:    [2]model.Region{net.cells, a.Named("cells.gen1", net.width)},
		rounds: rounds,
		wats:   wats,
	}
}

// Seed loads the input arrangement and WAT padding; call before running.
func (s *BitonicRobust) Seed(mem []Word) {
	s.net.seed(mem)
	for _, w := range s.wats {
		w.Seed(mem, w.Jobs())
	}
}

// Program returns the simulated-robust sort. Round r reads generation
// r mod 2 and writes generation (r+1) mod 2; a processor enters round
// r+1 only when round r's WAT certifies every comparator executed.
func (s *BitonicRobust) Program() model.Program {
	return func(p model.Proc) {
		for ri, r := range s.rounds {
			src, dst := s.gen[ri%2], s.gen[(ri+1)%2]
			s.wats[ri].Run(p, func(c int) {
				lo, hi, asc := r.comparator(c)
				compareExchangeInto(p, src, dst, lo, hi, asc)
			})
		}
	}
}

// Output reads the sorted element ids after a run.
func (s *BitonicRobust) Output(mem []Word) []int {
	final := bitonicNet{n: s.net.n, width: s.net.width, cells: s.gen[len(s.rounds)%2]}
	return final.output(mem)
}

// Rounds returns the number of network rounds.
func (s *BitonicRobust) Rounds() int { return len(s.rounds) }

func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Package core implements the paper's primary contribution: the
// wait-free sorting algorithm of Section 2. Sorting an input of N
// elements with P <= N processors proceeds in three phases (plus the
// output shuffle), each individually wait-free:
//
//	phase 1 — build_tree (Fig. 4): every element is installed into a
//	          Quicksort pivot tree by compare-and-swap; work is handed
//	          out by a Work Assignment Tree (Fig. 1/2) or by the
//	          randomized allocation of §2.3.
//	phase 2 — tree_sum (Fig. 5): subtree sizes, computed by all
//	          processors descending from the root, spread by the bits
//	          of their processor ids, pruning at nodes whose size is
//	          already known (bottom-up completion, so pruning is safe
//	          even if the computing processor crashed).
//	phase 3 — find_place (Fig. 6): each node's rank is derived from its
//	          parent's rank and its small-subtree size.
//	shuffle — the ranks are a permutation; a write-all pass moves
//	          element ids to their final positions.
//
// On a faultless synchronous PRAM the whole sort takes
// O(N log N / P) time w.h.p. for random inputs (Lemmas 2.7, 2.8), and
// it completes correctly under arbitrary processor crashes and delays.
//
// # Deviation from Figure 6 (crash safety)
//
// As literally written, find_place returns immediately when it sees
// place > 0. The place field is set top-down *before* the setter
// recurses into the children, so a processor that crashes between the
// write and the recursion would strand its subtree: every later visitor
// prunes at the node and nobody places the children. (Figure 5 does not
// have this problem — size is written bottom-up, after the subtree is
// complete.) We therefore give phase 3 the same bottom-up structure: a
// placeDone flag written after both children's subtrees are placed, and
// pruning happens on placeDone rather than on place. Work, time and
// contention bounds are unchanged (one extra word and O(1) extra
// operations per node); the low-contention phase 3 of §3.3 uses
// bottom-up DONE marks in exactly this way, so this is the paper's own
// repair applied to the deterministic variant.
package core

import (
	"math/bits"
	"sync/atomic"

	"wfsort/internal/engine"
	"wfsort/internal/model"
	"wfsort/internal/wat"
)

// Word aliases the shared-memory word type.
type Word = model.Word

// Side constants follow Figure 3: BIG = 0, SMALL = 1.
const (
	Big   = 0
	Small = 1
)

// Tuning configures the native fast path. The zero value is the
// paper-faithful configuration the simulator runs: per-element work
// claims, the Fig. 4 key-accounting read, no counters, and the phase-4
// shuffle — byte-identical operation sequences to the seed
// implementation, which is what every golden-metric test pins down.
//
// Non-zero tunings trade simulator-faithful accounting for hardware
// throughput; they preserve every correctness property (wait-freedom,
// crash tolerance, stability of the derived ranks) but not the paper's
// operation counts, so they are only ever used by the real-goroutine
// runtime in internal/native.
type Tuning struct {
	// Batch is the number of elements claimed per work-assignment-tree
	// leaf (0 or 1 = one element per leaf). Larger batches amortize the
	// Θ(log N) next_element traffic — and the root/top-level cache-line
	// traffic it causes — over Batch elements.
	Batch int
	// SkipKeyRead omits the Fig. 4 line 8 key read. The cell only
	// exists so simulated operation counts and contention match the
	// paper's accounting (keys never enter shared memory); on hardware
	// it is one wasted atomic load per descent level.
	SkipKeyRead bool
	// Shards > 0 enables the phase-2/3 install counters, sharded over
	// that many slots and aggregated on read.
	Shards int
	// HostShuffle skips phase 4 (the output shuffle). The native driver
	// already scatters elements from the rank table host-side, so the
	// shared-memory write-all pass is redundant work there.
	HostShuffle bool
}

// Alloc selects the phase-1 work-allocation strategy.
type Alloc int

// Work allocation strategies for phase 1.
const (
	// AllocWAT assigns elements via next_element from evenly spaced
	// leaves (Fig. 2). With inputs in random order the pivot tree is
	// O(log N) deep w.h.p. (Lemma 2.8).
	AllocWAT Alloc = iota
	// AllocRandomized first inserts uniformly random elements until it
	// sees log N consecutive already-done picks, then falls back to
	// next_element (§2.3 end). This makes the O(log N) tree depth hold
	// w.h.p. for *any* input order, including sorted inputs.
	AllocRandomized
)

// Sorter lays out and runs the wait-free sort for n elements. Element
// ids are 1..n; id 1 is the tree root (the first pivot, Fig. 4 line 5).
// The input keys never enter shared memory: ordering is consulted via
// Proc.Less.
type Sorter struct {
	n     int
	alloc Alloc
	tun   Tuning
	// live is the number of elements the current run sorts: elements
	// 1..live of the n laid out (see Seed). Every phase bounds its work
	// by it, so a pooled context sorts a request at its own size; rows
	// live+1..n stay untouched.
	live int

	// sumCtr and placeCtr count distinct phase-2 size installs and
	// phase-3 place installs (see Tuning.Shards). Both are zero-valued
	// (free) unless the sorter was built with NewSorterTuned.
	sumCtr   ShardedCounter
	placeCtr ShardedCounter

	// key.At(i) stands in for element i's key field: build_tree reads
	// it (one shared-memory operation, as in Fig. 4 line 8) before
	// comparing via Less. Keys themselves stay host-side; the cell read
	// exists so operation counts and — crucially — memory contention
	// match the paper's accounting, where all processors reading the
	// root pivot's key contend on one word.
	key model.Region
	// child[side].At(i) is element i's BIG/SMALL child pointer (Fig. 3).
	child [2]model.Region
	// size.At(i) is the size of the subtree rooted at i (phase 2).
	size model.Region
	// place.At(i) is element i's final 1-based rank (phase 3).
	place model.Region
	// placeDone.At(i) marks that i's whole subtree has been placed.
	placeDone model.Region
	// out.At(r) receives the element id of rank r+1 (shuffle).
	out model.Region

	// build assigns phase-1 insertions (elements 2..n → jobs 0..n-2).
	build *wat.WAT
	// shuffle assigns output writes (elements 1..n → jobs 0..n-1).
	shuffle *wat.WAT

	// graph is the declared phase sequence (1:build → 2:sum → 3:place →
	// 4:shuffle) that Sort executes through the engine scheduler. Nil for
	// bare tables (NewTable), which carry no work-assignment machinery.
	graph *engine.Graph
}

// NewSorter reserves the sort's shared state for n >= 1 elements in the
// arena. Call Seed on the runtime's memory before running.
func NewSorter(a model.Allocator, n int, alloc Alloc) *Sorter {
	return NewSorterNamed(a, n, alloc, "")
}

// NewSorterNamed is NewSorter with a label prefix for contention
// profiles (the §3 sort distinguishes group tables from the global
// one this way).
func NewSorterNamed(a model.Allocator, n int, alloc Alloc, prefix string) *Sorter {
	s := NewTableNamed(a, n, prefix)
	s.alloc = alloc
	s.shuffle = wat.NewNamed(a, prefix+"wat.shuffle", n)
	if n > 1 {
		s.build = wat.NewNamed(a, prefix+"wat.build", n-1)
	}
	s.buildGraph()
	return s
}

// NewSorterTuned reserves a sorter configured for the native fast path.
// A zero Tuning reproduces NewSorter exactly; see Tuning for what each
// knob trades away. The work-assignment trees cover ceil(jobs/Batch)
// leaves, so with Batch > 1 workers claim blocks of elements and touch
// the trees' contended top levels Batch times less often.
func NewSorterTuned(a model.Allocator, n int, alloc Alloc, tun Tuning) *Sorter {
	if tun.Batch < 1 {
		tun.Batch = 1
	}
	s := NewTableNamed(a, n, "")
	s.alloc = alloc
	s.tun = tun
	if !tun.HostShuffle {
		s.shuffle = wat.NewNamed(a, "wat.shuffle", ceilDiv(n, tun.Batch))
	}
	if n > 1 {
		s.build = wat.NewNamed(a, "wat.build", ceilDiv(n-1, tun.Batch))
	}
	if tun.Shards > 0 {
		s.sumCtr = NewShardedCounter(a, "sum", tun.Shards)
		s.placeCtr = NewShardedCounter(a, "place", tun.Shards)
	}
	s.buildGraph()
	return s
}

// NewTable reserves only the element table (keys, children, sizes,
// places, output) without the work-assignment trees. The low-contention
// sort of §3 drives the table with its own allocation machinery; tables
// support BuildTreeFrom, TreeSumFrom and FindPlaceFrom but not Sort.
func NewTable(a model.Allocator, n int) *Sorter {
	return NewTableNamed(a, n, "")
}

// NewTableNamed is NewTable with a label prefix for contention
// profiles.
func NewTableNamed(a model.Allocator, n int, prefix string) *Sorter {
	if n < 1 {
		panic("core: sorter needs n >= 1")
	}
	s := &Sorter{
		n:         n,
		live:      n,
		key:       a.Named(prefix+"key", n+1),
		size:      a.Named(prefix+"size", n+1),
		place:     a.Named(prefix+"place", n+1),
		placeDone: a.Named(prefix+"placedone", n+1),
		out:       a.Named(prefix+"out", n),
	}
	s.child[Big] = a.Named(prefix+"child.big", n+1)
	s.child[Small] = a.Named(prefix+"child.small", n+1)
	return s
}

// N returns the laid-out input size (the capacity).
func (s *Sorter) N() int { return s.n }

// Seed prepares zeroed memory for a run that sorts elements 1..live of
// the n laid out (1 <= live <= n): it records the live count and
// pre-marks the work-assignment leaves past it DONE. One-shot sorts
// pass live = n; a pooled context passes the request size. The caller
// must not reseed while workers of a run are still reading the sorter.
func (s *Sorter) Seed(mem []Word, live int) {
	if live < 1 || live > s.n {
		panic("core: live count out of range")
	}
	s.live = live
	if s.build != nil {
		s.build.Seed(mem, ceilDiv(live-1, s.batch()))
	}
	if s.shuffle != nil {
		s.shuffle.Seed(mem, ceilDiv(live, s.batch()))
	}
}

// Program returns the full wait-free sort as a model.Program. Every
// processor runs all phases; phase transitions are individually gated
// (a processor leaves phase 1 only when the whole pivot tree is built,
// leaves phase 2 only having verified the root's size, and so on), so
// no barriers and no fault-free assumptions are needed.
func (s *Sorter) Program() model.Program {
	return func(p model.Proc) {
		s.Sort(p)
	}
}

// Sort runs all phases on the calling processor by executing the
// declared phase graph.
func (s *Sorter) Sort(p model.Proc) {
	if s.graph == nil {
		panic("core: Sort requires a sorter from NewSorter, not NewTable")
	}
	s.graph.Run(p)
}

// Graph returns the sorter's declared phase graph, or nil for bare
// tables. Runtimes that schedule at phase granularity (native.Pipeline)
// and the certification harness introspect it.
func (s *Sorter) Graph() *engine.Graph { return s.graph }

// buildGraph declares the §2 sort as an engine phase graph. The phase
// sequence, labels and bodies reproduce the seed's inline orchestration
// operation-for-operation (the simulator goldens pin this down); the
// graph additionally carries host-side completion predicates for the
// certifier and, under Tuning.HostShuffle, the scatter epilogue that
// replaces the shared-memory write-all pass.
func (s *Sorter) buildGraph() {
	g := engine.New("core")
	if s.n > 1 {
		g.Add(engine.Phase{
			Name: "1:build",
			Body: func(p model.Proc, _ any) { s.BuildPhase(p) },
			// The completion sweep drives next_element to NoWork, which
			// requires the build WAT's root mark — so a doneish root
			// certifies every insertion under either allocation.
			Done: func(mem []Word) bool { return model.Doneish(mem[leafAddr(s.build, 1)]) },
		})
		g.Add(engine.Phase{
			Name: "2:sum",
			Body: func(p model.Proc, _ any) { s.treeSum(p, 1, 0) },
			Done: func(mem []Word) bool { sized, _ := s.Progress(mem); return sized == s.live },
		})
		g.Add(engine.Phase{
			Name: "3:place",
			Body: func(p model.Proc, _ any) {
				var st *descentState
				if s.placeCtr.Enabled() {
					st = &descentState{}
				}
				s.findPlace(p, 1, 0, 0, st)
			},
			// The root's placeDone mark can legitimately be skipped under
			// the tuned early exit, so completion is judged on the ranks
			// themselves.
			Done: func(mem []Word) bool { _, placed := s.Progress(mem); return placed == s.live },
		})
	} else {
		g.Add(engine.Phase{
			Name: "2:sum",
			Body: func(p model.Proc, _ any) { p.Write(s.size.At(1), 1) },
			Done: func(mem []Word) bool { sized, _ := s.Progress(mem); return sized == s.live },
		})
		g.Add(engine.Phase{
			Name: "3:place",
			Body: func(p model.Proc, _ any) { p.Write(s.place.At(1), 1) },
			Done: func(mem []Word) bool { _, placed := s.Progress(mem); return placed == s.live },
		})
	}
	if s.tun.HostShuffle {
		// Host-only phase: the native driver scatters from the rank table
		// itself; by the time any worker returns from phase 3 every place
		// word is final (places are installed before the bottom-up
		// placeDone marks that gate pruning), so the workers have nothing
		// left to publish and the engine skips the phase entirely. Drivers
		// that nevertheless want the out region materialized (Output) run
		// the epilogue via Graph.Epilogues.
		g.Add(engine.Phase{
			Name:     "4:shuffle",
			Epilogue: s.scatterHost,
		})
	} else {
		g.Add(engine.Phase{
			Name: "4:shuffle",
			Body: func(p model.Proc, _ any) {
				batch := s.batch()
				s.shuffle.Run(p, func(j int) {
					lo := j*batch + 1
					hi := min(lo+batch-1, s.live)
					for elem := lo; elem <= hi; elem++ {
						r := p.Read(s.place.At(elem))
						p.Write(s.out.At(int(r)-1), Word(elem))
					}
				})
			},
			Done: func(mem []Word) bool {
				for r := 0; r < s.live; r++ {
					if mem[s.out.At(r)] == model.Empty {
						return false
					}
				}
				return true
			},
		})
	}
	s.graph = g
}

// scatterHost fills the out region from the rank table host-side — the
// same permutation the shared-memory shuffle publishes, computed on
// quiescent memory without the write-all pass.
func (s *Sorter) scatterHost(mem []Word) {
	for i := 1; i <= s.live; i++ {
		mem[s.out.At(int(mem[s.place.At(i)])-1)] = Word(i)
	}
}

// batch returns the work-claim granularity (>= 1).
func (s *Sorter) batch() int {
	if s.tun.Batch < 1 {
		return 1
	}
	return s.tun.Batch
}

// BuildPhase runs only phase 1 (tree construction) under the sorter's
// configured allocation — exposed so experiments can measure the phase
// in isolation.
func (s *Sorter) BuildPhase(p model.Proc) {
	if s.live <= 1 {
		return
	}
	switch s.alloc {
	case AllocRandomized:
		s.buildPhaseRandomized(p)
	default:
		s.buildPhaseWAT(p)
	}
}

// TreeIsSortedBST verifies, host-side after a run, that the pivot tree
// rooted at element 1 contains all live elements exactly once and that
// an in-order traversal enumerates them in increasing key order
// (Lemma 2.5).
func (s *Sorter) TreeIsSortedBST(mem []Word, less func(i, j int) bool) bool {
	return s.TreeIsSortedBSTFrom(mem, 1, less)
}

// TreeIsSortedBSTFrom is TreeIsSortedBST for a tree rooted at an
// arbitrary element (the §3 sort's root is a winner sample).
func (s *Sorter) TreeIsSortedBSTFrom(mem []Word, root int, less func(i, j int) bool) bool {
	order := make([]int, 0, s.live)
	var walk func(i int) bool
	walk = func(i int) bool {
		if i == 0 {
			return true
		}
		if i < 0 || i > s.live || len(order) > s.live {
			return false
		}
		if !walk(int(mem[s.child[Small].At(i)])) {
			return false
		}
		order = append(order, i)
		return walk(int(mem[s.child[Big].At(i)]))
	}
	if !walk(root) || len(order) != s.live {
		return false
	}
	for k := 1; k < len(order); k++ {
		if !less(order[k-1], order[k]) {
			return false
		}
	}
	return true
}

// buildSpan returns the element range [lo, hi] covered by build job j
// (elements 2..live are inserted; element 1 is the root and needs no
// insertion). With Batch == 1 job j covers exactly element j+2, the
// seed mapping.
func (s *Sorter) buildSpan(j int) (lo, hi int) {
	b := s.batch()
	lo = j*b + 2
	hi = min(lo+b-1, s.live)
	return lo, hi
}

// buildJobShuffled inserts build job j's elements in a random order
// drawn from the worker's private stream. With Batch > 1 a job may span
// a run of consecutive input positions; inserting the run in input
// order would grow pivot-tree chains of up to Batch nodes on sorted
// inputs, so the within-block order is shuffled to keep the randomized
// allocation's O(log N)-depth argument intact. A one-element job draws
// nothing from the stream, so at Batch 1 the operation sequence is the
// paper's. scratch is worker-local scrap of Batch elements, reused
// across jobs.
func (s *Sorter) buildJobShuffled(p model.Proc, j int, rng *model.Rng, scratch []int) {
	lo, hi := s.buildSpan(j)
	block := scratch[:hi-lo+1]
	for k := range block {
		block[k] = lo + k
	}
	for i := len(block) - 1; i > 0; i-- {
		k := rng.Intn(i + 1)
		block[i], block[k] = block[k], block[i]
	}
	for _, e := range block {
		s.BuildTree(p, e)
	}
}

// buildPhaseWAT is phase 1 under deterministic WAT allocation (Fig. 2
// with build_tree as func), inserting each job's elements in ascending
// order.
func (s *Sorter) buildPhaseWAT(p model.Proc) {
	s.build.Run(p, func(j int) {
		lo, hi := s.buildSpan(j)
		for e := lo; e <= hi; e++ {
			s.BuildTree(p, e)
		}
	})
}

// buildPhaseRandomized is phase 1 under the randomized allocation of
// §2.3: pick uniform random jobs and insert them, marking progress
// up the WAT, until this worker sees log N consecutive picks that were
// already done; then switch to next_element. The completion sweep
// inserts each remaining block in shuffled order too, so no block is
// ever inserted as an ascending run of input positions and the
// O(log N)-depth argument holds for any input order.
func (s *Sorter) buildPhaseRandomized(p model.Proc) {
	jobs := ceilDiv(s.live-1, s.batch()) // the live jobs Seed left unmarked
	logN := bits.Len(uint(jobs)) + 1
	rng := p.Rand()
	scratch := make([]int, s.batch())
	misses := 0
	last := s.build.LeafNode(rng.Intn(jobs))
	for misses < logN {
		j := rng.Intn(jobs)
		leaf := s.build.LeafNode(j)
		last = leaf
		if p.Read(leafAddr(s.build, leaf)) == model.Done {
			misses++
			continue
		}
		misses = 0
		s.buildJobShuffled(p, j, rng, scratch)
		s.markClimb(p, leaf)
	}
	// Completion sweep from the last (done) leaf.
	i := last
	for i != wat.NoWork {
		if j := s.build.JobOf(i); j >= 0 {
			s.buildJobShuffled(p, j, rng, scratch)
		}
		i = s.build.NextElement(p, i)
	}
}

// markClimb performs lines 3–12 of next_element (Fig. 1): mark the leaf
// DONE and propagate DONE upward while sibling subtrees are complete,
// without claiming new work.
func (s *Sorter) markClimb(p model.Proc, i int) {
	p.Write(leafAddr(s.build, i), model.Done)
	for i != 1 {
		sib := i ^ 1
		if p.Read(leafAddr(s.build, sib)) != model.Done {
			return
		}
		i /= 2
		p.Write(leafAddr(s.build, i), model.Done)
	}
}

// BuildTree is build_tree of Figure 4: install element i into the pivot
// tree rooted at element 1. It is wait-free and loops at most N−1 times
// (Lemma 2.4); concurrent calls with the same i follow the same path
// and are harmless.
func (s *Sorter) BuildTree(p model.Proc, i int) {
	if i == 1 {
		return
	}
	s.BuildTreeFrom(p, i, 1)
}

// BuildTreeFrom runs the build_tree descent loop starting from an
// arbitrary ancestor already known to subsume element i (the §3.2 glue
// phase enters here after descending the fat tree).
//
// One optimization over the literal Figure 4: the child pointer is
// read before attempting the compare-and-swap ("test-then-CAS"), so a
// CAS is issued only when the slot was just observed EMPTY. The
// paper's facts 1–6 are untouched (the read in the descent still never
// observes EMPTY after a failed install, and insertion attempts still
// follow the unique path for i), per-level cost is still O(1), and on
// real hardware a failed CAS now *means* a lost race — which is what
// experiment E18 measures as the native contention signal.
func (s *Sorter) BuildTreeFrom(p model.Proc, i, parent int) {
	for {
		if !s.tun.SkipKeyRead {
			// Fig. 4 line 8: read the parent's key, then compare. The
			// cell exists purely so simulated op counts and contention
			// match the paper's accounting; the native fast path skips
			// the load (see Tuning.SkipKeyRead).
			p.Read(s.key.At(parent))
		}
		side := Big
		if p.Less(i, parent) {
			side = Small
		}
		a := s.child[side].At(parent)
		v := p.Read(a)
		if v == model.Empty {
			if p.CAS(a, model.Empty, Word(i)) {
				return
			}
			v = p.Read(a)
		}
		if v == Word(i) {
			// Another processor installed our element (same path,
			// Fig. 4 facts 1–6).
			return
		}
		parent = int(v)
	}
}

// TreeSumFrom runs phase 2 from an arbitrary root element (used by the
// §3 variant and its deterministic fallback) and returns its subtree
// size.
func (s *Sorter) TreeSumFrom(p model.Proc, root int) Word {
	return s.treeSum(p, root, 0)
}

// FindPlaceFrom runs phase 3 from an arbitrary root element whose
// subtree spans ranks sub+1..sub+size.
func (s *Sorter) FindPlaceFrom(p model.Proc, root int, sub Word) {
	s.findPlace(p, root, sub, 0, nil)
}

// treeSum is tree_sum of Figure 5: return the size of the subtree
// rooted at element i, computing and caching it if unknown. Processors
// spread over the tree by their id bits. Pruning on size > 0 is crash
// safe because size is written only after the whole subtree is summed.
func (s *Sorter) treeSum(p model.Proc, i, d int) Word {
	if i == 0 {
		return 0
	}
	if sz := p.Read(s.size.At(i)); sz > 0 {
		return sz
	}
	first, second := Small, Big
	if pidBit(p.ID(), d) == Big {
		first, second = Big, Small
	}
	sum := s.treeSum(p, int(p.Read(s.child[first].At(i))), d+1)
	sum += s.treeSum(p, int(p.Read(s.child[second].At(i))), d+1)
	if s.sumCtr.Enabled() {
		// Native fast path: install via CAS so exactly one worker counts
		// each node, and accumulate the install into this worker's shard.
		// The aggregate — readable by summing the shards — is the number
		// of distinct subtree sizes known so far; phase 3 uses its sister
		// counter to short-circuit, and tests read it host-side to check
		// that tree_sum accounted for every node exactly once. A lost
		// race rewrites nothing (the CAS fails on the identical value
		// already installed).
		if p.CAS(s.size.At(i), model.Empty, sum+1) {
			s.sumCtr.Add(p, 1)
		}
	} else {
		p.Write(s.size.At(i), sum+1)
	}
	return sum + 1
}

// descentState carries a worker's phase-3 early-exit bookkeeping: a
// visit budget between polls of the sharded place counter, and the
// latched "phase globally complete" verdict.
type descentState struct {
	visits int
	done   bool
}

// findPlace is find_place of Figure 6 with the bottom-up placeDone
// completion marker (see the package comment). sub is the number of
// elements smaller than i's entire subtree.
//
// st is nil outside the native fast path. When set, the worker installs
// places by CAS and counts distinct installs in a sharded counter;
// every 64 visits it aggregates the counter, and once all live places
// are installed it abandons the rest of its traversal. Pruning on
// placeDone alone cannot do this: the bottom-up marks appear long after
// the place values they summarize, so late workers redundantly re-walk
// subtrees whose output is already complete.
func (s *Sorter) findPlace(p model.Proc, i int, sub Word, d int, st *descentState) {
	if i == 0 || (st != nil && st.done) {
		return
	}
	if p.Read(s.placeDone.At(i)) != model.Empty {
		return
	}
	if st != nil {
		st.visits++
		if st.visits&63 == 0 && s.placeCtr.Sum(p) >= Word(s.live) {
			st.done = true
			return
		}
	}
	small := int(p.Read(s.child[Small].At(i)))
	big := int(p.Read(s.child[Big].At(i)))
	sm := model.SmallSubtreeSize(p, Word(small), s.size.At)
	if st != nil {
		if p.CAS(s.place.At(i), model.Empty, sm+sub+1) {
			s.placeCtr.Add(p, 1)
		}
	} else {
		p.Write(s.place.At(i), sm+sub+1)
	}
	if pidBit(p.ID(), d) == Small {
		s.findPlace(p, small, sub, d+1, st)
		s.findPlace(p, big, sub+sm+1, d+1, st)
	} else {
		s.findPlace(p, big, sub+sm+1, d+1, st)
		s.findPlace(p, small, sub, d+1, st)
	}
	if st != nil && st.done {
		// Every place word is installed (that is what done means), so
		// the bottom-up marks only exist to prune other workers — who
		// short-circuit through their own counter polls anyway. Skip
		// the write and unwind.
		return
	}
	p.Write(s.placeDone.At(i), model.Done)
}

// Places extracts the 1-based rank of every live element after a run:
// Places(mem)[i-1] is element i's position in sorted order.
func (s *Sorter) Places(mem []Word) []int {
	ranks := make([]int, s.live)
	s.PlacesInto(mem, ranks)
	return ranks
}

// PlacesInto is Places without the allocation: it fills dst[i-1] with
// element i's rank for the first min(live, len(dst)) elements. The
// pooled serving layer (internal/pool) calls it with a context-owned
// scratch slice so steady-state sorts never allocate rank tables.
func (s *Sorter) PlacesInto(mem []Word, dst []int) {
	n := min(s.live, len(dst))
	for i := 1; i <= n; i++ {
		dst[i-1] = int(mem[s.place.At(i)])
	}
}

// Progress reports, host-side, how far a run got through phases 2 and
// 3: the number of elements whose subtree size is installed and the
// number whose rank is installed. After any completed run — faultless
// or not — both equal the live count; a partial count is the forensic
// trail of a run that lost every worker, which is what the chaos
// certifier reports when a fault schedule proves too aggressive.
func (s *Sorter) Progress(mem []Word) (sized, placed int) {
	return s.progressScan(mem, plainLoad)
}

// LiveProgress is Progress for a run still in flight: the same counts
// read with atomic loads, so the observability plane's /metrics
// endpoint can poll it from the host while workers write concurrently
// without a data race. The counts are momentary — phases 2 and 3
// install sizes and places monotonically, so successive polls are
// nondecreasing.
func (s *Sorter) LiveProgress(mem []Word) (sized, placed int) {
	return s.progressScan(mem, atomicLoad)
}

// progressScan is the one phase-2/3 progress loop, parameterized by
// load discipline: plain loads on quiescent memory (Progress), atomic
// loads while workers are in flight (LiveProgress).
func (s *Sorter) progressScan(mem []Word, load func(*Word) Word) (sized, placed int) {
	for i := 1; i <= s.live; i++ {
		if load(&mem[s.size.At(i)]) != model.Empty {
			sized++
		}
		if load(&mem[s.place.At(i)]) != model.Empty {
			placed++
		}
	}
	return sized, placed
}

func plainLoad(w *Word) Word  { return *w }
func atomicLoad(w *Word) Word { return atomic.LoadInt64(w) }

// Output extracts the shuffled result: Output(mem)[r] is the element id
// with rank r+1.
func (s *Sorter) Output(mem []Word) []int {
	ids := make([]int, s.live)
	for r := 0; r < s.live; r++ {
		ids[r] = int(mem[s.out.At(r)])
	}
	return ids
}

// Depth returns the depth of the built pivot tree (root = depth 1),
// measured host-side after a run; 0 for an empty tree. Experiment E12
// uses it to validate the O(log N) w.h.p. claim of Lemma 2.8.
func (s *Sorter) Depth(mem []Word) int {
	return s.DepthFrom(mem, 1)
}

// DepthFrom returns the depth of the subtree rooted at element i,
// measured host-side after a run (the §3 sorter's root is a sample
// element rather than element 1).
func (s *Sorter) DepthFrom(mem []Word, i int) int {
	if i == 0 {
		return 0
	}
	dS := s.DepthFrom(mem, int(mem[s.child[Small].At(i)]))
	dB := s.DepthFrom(mem, int(mem[s.child[Big].At(i)]))
	return 1 + max(dS, dB)
}

// MeanDepth returns the mean depth of the pivot tree's live nodes
// (root = depth 1), measured host-side after a completed run: the
// average insertion path length, where Depth is the worst one.
func (s *Sorter) MeanDepth(mem []Word) float64 {
	return float64(s.depthSum(mem, 1, 1)) / float64(s.live)
}

// depthSum returns the sum of node depths in the subtree rooted at
// element i, which sits at depth d.
func (s *Sorter) depthSum(mem []Word, i, d int) int {
	if i == 0 {
		return 0
	}
	return d + s.depthSum(mem, int(mem[s.child[Small].At(i)]), d+1) +
		s.depthSum(mem, int(mem[s.child[Big].At(i)]), d+1)
}

// Shared-memory address accessors, used by the §3 low-contention sort
// to drive the same element table with its own machinery.

// ChildAddr returns the address of element i's child pointer for side
// (Small or Big).
func (s *Sorter) ChildAddr(side, i int) int { return s.child[side].At(i) }

// KeyAddr returns the address of element i's key stand-in cell.
func (s *Sorter) KeyAddr(i int) int { return s.key.At(i) }

// SizeAddr returns the address of element i's subtree-size word.
func (s *Sorter) SizeAddr(i int) int { return s.size.At(i) }

// PlaceAddr returns the address of element i's rank word.
func (s *Sorter) PlaceAddr(i int) int { return s.place.At(i) }

// PlaceDoneAddr returns the address of element i's phase-3 completion
// mark.
func (s *Sorter) PlaceDoneAddr(i int) int { return s.placeDone.At(i) }

// PlaceDoneRegion returns the phase-3 completion-mark region itself.
// Callers that index the marks as a region (the §3.3 probing phases)
// must use this rather than reconstruct a region from PlaceDoneAddr(0):
// on padded arenas the region is not contiguous, so a synthesized dense
// region would disagree with the addresses the sorter itself uses.
func (s *Sorter) PlaceDoneRegion() model.Region { return s.placeDone }

// OutAddr returns the address of the rank-(r+1) output slot.
func (s *Sorter) OutAddr(r int) int { return s.out.At(r) }

// pidBit returns the bit that routes processor pid at depth d of the
// tree-sum / find-place traversals (Fig. 5/6 use "the d-th bit of
// PID"). For d < log2(P) this is the literal pid bit, exactly as the
// paper writes. Beyond that the pid runs out of bits — the paper
// assumes processors are alone by then, which holds for complete trees
// but not for the imbalanced subtrees of a random pivot tree, where
// whole groups of processors would then follow identical routes and
// duplicate each other's work (measured as Θ(N²) aggregate work at
// P = N). We therefore extend the bit sequence pseudo-randomly, mixing
// pid and d, so equal-prefix processors keep dividing the remaining
// work at every level. This only *extends* the paper's spreading idea
// to depths its analysis assumed unreachable.
func pidBit(pid, d int) int {
	if d < 62 && (pid>>uint(d)) != 0 {
		return (pid >> uint(d)) & 1
	}
	x := uint64(pid)*0x9e3779b97f4a7c15 + uint64(d)*0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	return int(x & 1)
}

// leafAddr returns the shared-memory address of a WAT node.
func leafAddr(w *wat.WAT, node int) int { return w.NodeAddr(node) }

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// CounterTotals reports the sharded counters' host-side aggregates
// after a run: distinct phase-2 size installs and distinct phase-3
// place installs. Both zero unless the sorter was built with
// Tuning.Shards > 0. After a completed tuned run both must equal the
// live count — the invariant the fast-path tests pin down.
func (s *Sorter) CounterTotals(mem []Word) (sum, place Word) {
	return s.sumCtr.HostSum(mem), s.placeCtr.HostSum(mem)
}

// Tuning returns the sorter's fast-path configuration.
func (s *Sorter) Tuning() Tuning { return s.tun }

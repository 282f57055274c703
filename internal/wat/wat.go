// Package wat implements Work Assignment Trees — the deterministic
// work-allocation structure of the paper's Figure 1 (the next_element
// routine, after Algorithm X of Buss, Kanellakis, Ragde and Shvartsman)
// and the skeleton wait-free algorithm of Figure 2 built on it.
//
// A WAT is a complete binary tree whose leaves are jobs and whose inner
// nodes summarize completion of their subtrees. A processor that
// finishes a leaf marks it DONE and climbs until it finds an incomplete
// sibling subtree, then descends into it to claim more work. Lemma 2.1:
// one next_element call is wait-free and takes O(log N) operations.
// Lemma 2.3: with P = N processors on a faultless synchronous PRAM the
// skeleton algorithm completes in O(K + log N) steps for O(K)-step
// jobs.
//
// The same leaf may be executed by several processors (a processor can
// descend to a leaf just before another finishes it), so job functions
// must be idempotent — every use in this repository is.
package wat

import (
	"math/bits"

	"wfsort/internal/model"
)

// NoWork is returned by NextElement when the whole tree is complete.
const NoWork = 0

// WAT is a work-assignment tree over a fixed number of jobs. Nodes are
// stored as a 1-indexed binary heap in shared memory: node 1 is the
// root, node n's children are 2n and 2n+1, and the leaves are nodes
// [leaves, 2·leaves). Jobs beyond the count a run seeds (padding up to
// a power of two, and any laid-out jobs the run leaves out) are
// pre-marked DONE by Seed.
type WAT struct {
	tree   model.Region
	leaves int // power of two
	jobs   int
	live   int // jobs the current run covers (see Seed)
}

// New lays out a WAT for the given number of jobs (>= 1) in the arena.
// Call Seed on the runtime's memory before running programs that use
// the tree. The allocator decides physical placement: the simulator's
// dense model.Arena keeps the heap contiguous, while the padded native
// arenas give the contended top nodes their own cache lines.
func New(a model.Allocator, jobs int) *WAT {
	return NewNamed(a, "wat", jobs)
}

// NewNamed is New with a region label for contention profiles.
func NewNamed(a model.Allocator, name string, jobs int) *WAT {
	if jobs < 1 {
		panic("wat: jobs must be >= 1")
	}
	leaves := ceilPow2(jobs)
	return &WAT{
		tree:   a.Named(name, 2*leaves),
		leaves: leaves,
		jobs:   jobs,
		live:   jobs,
	}
}

// Jobs returns the number of real jobs tracked by the tree.
func (w *WAT) Jobs() int { return w.jobs }

// Leaves returns the (power-of-two) leaf count including padding.
func (w *WAT) Leaves() int { return w.leaves }

// Depth returns the tree depth (root = depth 0; leaves at Depth).
func (w *WAT) Depth() int { return bits.TrailingZeros(uint(w.leaves)) }

// Seed pre-marks every leaf past the first jobs (0 <= jobs <= Jobs()),
// and inner nodes whose whole subtree is such padding, as DONE in the
// runtime's zeroed memory, so a tree laid out for Jobs() jobs runs only
// the first jobs of them; Run spreads its processors' starting leaves
// over those jobs. It must run before the machine does (initialization
// is free, matching the paper's assumption of an initialized work
// array).
func (w *WAT) Seed(mem []model.Word, jobs int) {
	if jobs < 0 || jobs > w.jobs {
		panic("wat: seeded job count out of range")
	}
	w.live = jobs
	if jobs == w.leaves {
		return
	}
	for n := 2*w.leaves - 1; n >= 1; n-- {
		if w.isLeafNode(n) {
			if n-w.leaves >= jobs {
				mem[w.tree.At(n)] = model.Done
			}
		} else if mem[w.tree.At(2*n)] == model.Done && mem[w.tree.At(2*n+1)] == model.Done {
			mem[w.tree.At(n)] = model.Done
		}
	}
}

// NodeAddr returns the shared-memory address of tree node n, for
// callers (like the randomized phase-1 allocation of §2.3) that probe
// and mark nodes directly.
func (w *WAT) NodeAddr(n int) int { return w.tree.At(n) }

// LeafNode returns the tree node holding job j (0-based).
func (w *WAT) LeafNode(j int) int {
	if j < 0 || j >= w.jobs {
		panic("wat: job index out of range")
	}
	return w.leaves + j
}

// JobOf returns the job index of a leaf node, or -1 for padding or
// inner nodes.
func (w *WAT) JobOf(node int) int {
	if !w.isLeafNode(node) {
		return -1
	}
	j := node - w.leaves
	if j >= w.jobs {
		return -1
	}
	return j
}

// IsLeaf reports whether node is a leaf of the tree.
func (w *WAT) IsLeaf(node int) bool { return w.isLeafNode(node) }

func (w *WAT) isLeafNode(n int) bool { return n >= w.leaves }

// InitialLeaf returns the paper's starting assignment for a processor:
// leaf number jobs·pid/P, spreading processors evenly across the jobs
// the tree was seeded with.
func (w *WAT) InitialLeaf(pid, numProcs int) int {
	return w.LeafNode(w.live * pid / numProcs)
}

// NextElement is the routine of Figure 1. It marks node i DONE, climbs
// while sibling subtrees are complete, and descends into the first
// incomplete sibling it finds. It returns the next node to work on — a
// leaf normally, an inner node whose completion information is stale
// (the caller should simply pass it back in), or NoWork when the root
// has been marked DONE.
//
// The routine is wait-free: the climb and the descent each move
// monotonically through a tree of depth log N (Lemma 2.1).
func (w *WAT) NextElement(p model.Proc, i int) int {
	t := w.tree
	p.Write(t.At(i), model.Done)
	if i == 1 {
		// Single-node tree: the root is the only leaf.
		return NoWork
	}
	for {
		s := sibling(i)
		if p.Read(t.At(s)) == model.Done {
			par := i / 2
			p.Write(t.At(par), model.Done)
			i = par
			if par == 1 {
				return NoWork
			}
			continue
		}
		i = s
		break
	}
	for !w.isLeafNode(i) {
		l, r := 2*i, 2*i+1
		if p.Read(t.At(l)) != model.Done {
			i = l
		} else if p.Read(t.At(r)) != model.Done {
			i = r
		} else {
			// Both children DONE but the node is not: its information
			// is outdated. Return it so the caller re-enters and the
			// climb marks it (the paper's "special case").
			return i
		}
	}
	return i
}

// Run is the skeleton wait-free algorithm of Figure 2: the processor
// starts at its evenly-spaced leaf and executes job functions until the
// whole tree is DONE. job may be invoked more than once per index
// (concurrently with other processors) and must be idempotent.
func (w *WAT) Run(p model.Proc, job func(j int)) {
	var i int
	switch {
	case w.live == 0:
		return // seeded with no jobs: the tree starts complete
	case p.NumProcs() <= w.live:
		i = w.InitialLeaf(p.ID(), p.NumProcs())
	default:
		// More processors than jobs: wrap around so every processor
		// starts at a valid leaf.
		i = w.LeafNode(p.ID() % w.live)
	}
	for i != NoWork {
		if j := w.JobOf(i); j >= 0 {
			job(j)
		}
		i = w.NextElement(p, i)
	}
}

func sibling(n int) int { return n ^ 1 }

func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// This file is the sample-sort math: seeded splitter sampling,
// duplicate-spreading partition and the k-way merge that reassembles
// the shard replies. "A Randomised Approach to Distributed Sorting"
// grounds the shape: draw a seeded oversample, cut it at even
// quantiles, scatter key ranges, merge sorted runs on the way back.

package cluster

import (
	"math/rand"
	"sort"

	"wfsort/internal/merge"
)

// shardCount is how many shards n keys split into under a per-shard
// cap: the unit of backend work is a bounded shard (a backend rejects
// requests above its MaxKeys with 413), so the shard count grows with
// the input, not with the backend count.
func shardCount(n, shardKeys int) int {
	if n <= shardKeys {
		return 1
	}
	return (n + shardKeys - 1) / shardKeys
}

// drawSplitters samples keys with replacement (oversample per shard,
// seeded — the same input and seed always cut identically), sorts the
// sample and returns the k−1 even-quantile cut points.
func drawSplitters(keys []int64, k, oversample int, seed uint64) []int64 {
	n := len(keys)
	m := k * oversample
	if m > n {
		m = n
	}
	rng := rand.New(rand.NewSource(int64(seed) ^ int64(n)<<1))
	sample := make([]int64, m)
	for i := range sample {
		sample[i] = keys[rng.Intn(n)]
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	split := make([]int64, k-1)
	for i := 1; i < k; i++ {
		split[i-1] = sample[i*m/k]
	}
	return split
}

// partition scatters keys into len(split)+1 shards: shard i takes the
// range (split[i−1], split[i]]. A key equal to a run of splitters has
// more than one legal shard — every shard whose cut point equals the
// key plus the one after the run — and is spread round-robin across
// that range. The spreading is what keeps duplicate-heavy inputs
// balanced: an all-equal input samples all-equal splitters, every key
// becomes eligible everywhere, and the shards come out even instead of
// one shard taking the whole input. Globally sorted output does not
// depend on it (the merge compares real keys), only the balance bound
// does (DESIGN §15).
func partition(keys []int64, split []int64) [][]int64 {
	k := len(split) + 1
	shards := make([][]int64, k)
	want := (len(keys) + k - 1) / k
	for i := range shards {
		shards[i] = make([]int64, 0, want+want/4)
	}
	spread := 0
	for _, key := range keys {
		lo := sort.Search(len(split), func(i int) bool { return split[i] >= key })
		hi := sort.Search(len(split), func(i int) bool { return split[i] > key })
		idx := lo
		if hi > lo {
			idx = lo + spread%(hi-lo+1)
			spread++
		}
		shards[idx] = append(shards[idx], key)
	}
	return shards
}

// kmerge merges sorted shards into one sorted slice of n keys; ties
// break toward the lower shard index, so a given partition has exactly
// one merge output — the determinism the kill-leg's byte-identical
// gate rests on. The heap itself lives in internal/merge, shared with
// the streaming external sort's spill drain.
func kmerge(shards [][]int64, n int) []int64 {
	return merge.Slices(shards, n)
}

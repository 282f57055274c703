package main

import (
	"math"
	"runtime"
	"slices"
)

// The output check. It is deliberately independent of the repo's own
// sum/xor ledger (wire.Fold, loadgen and the cluster shard check),
// which accepts crafted corruptions such as [0 3 3 4] or [1 1 2 6] for
// the input [1 2 4 3]. Here the multiset hash is the sum mod 2^64 of
// splitmix64 over the keys, so a substitution that preserves sum and
// xor still changes the hash with overwhelming probability.

// splitmix64 is the splitmix64 generator's output step applied to x.
func splitmix64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// digest is what a correct output must match: the key count and the
// multiset hash of the input keys.
type digest struct {
	n    int
	hash uint64
}

func digestOf(keys []int64) digest {
	var h uint64
	for _, k := range keys {
		h += splitmix64(uint64(k))
	}
	return digest{n: len(keys), hash: h}
}

// sortedAs reports whether out is a non-decreasing permutation of the
// input summarised by want.
func sortedAs(out []int64, want digest) bool {
	if len(out) != want.n {
		return false
	}
	var h uint64
	for i, k := range out {
		if i > 0 && out[i-1] > k {
			return false
		}
		h += splitmix64(uint64(k))
	}
	return h == want.hash
}

// outcome classifies one call.
type outcome int

const (
	outOK     outcome = iota
	outFailed         // a transport failure, a refusal (429, 503, 504) or another status
	outWrong          // an answer that failed the output check
)

// classify maps a reply to its outcome; out is checked only on a 200.
func classify(status int, err error, out []int64, want digest) outcome {
	switch {
	case err != nil || status != 200:
		return outFailed
	case sortedAs(out, want):
		return outOK
	}
	return outWrong
}

// tally accumulates one pass's calls.
type tally struct {
	attempted, failed, wrong int
	keysOK                   int64
	latMs                    []float64 // one per call; +Inf for a failed call
	win                      []int     // window of each call (open loop only)
	keys                     int64     // keys sent in all calls
	wallNs                   int64     // timed wall: the calls' own wall (closed loop) or the run's (open loop)
	okNs, refNs              int64     // wall of verified calls; slices.Sort wall on their inputs
	allocPerKey              []float64 // bytes each call allocated per key (closed loop only)
}

// measureAlloc runs f and records what it allocated per key of an
// n-key call.
func (t *tally) measureAlloc(n int, f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	t.allocPerKey = append(t.allocPerKey, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
}

// add records one call of n keys that took latNs and ended in o.
func (t *tally) add(o outcome, n int, latNs int64) {
	t.attempted++
	t.keys += int64(n)
	if o != outOK {
		t.failed++
		if o == outWrong {
			t.wrong++
		}
		t.latMs = append(t.latMs, math.Inf(1))
		return
	}
	t.keysOK += int64(n)
	t.okNs += latNs
	t.latMs = append(t.latMs, float64(latNs)/1e6)
}

// latQ is the q-quantile of call latency. For an open loop, whose
// calls carry windows, it is the median over windows of each window's
// q-quantile: a host stall that spans a few windows moves a whole-run
// tail a lot, this one little.
func (t *tally) latQ(q float64) float64 {
	if t.win == nil {
		return quantile(t.latMs, q)
	}
	per := map[int][]float64{}
	for i, w := range t.win {
		per[w] = append(per[w], t.latMs[i])
	}
	var qs []float64
	for _, v := range per {
		qs = append(qs, quantile(v, q))
	}
	return quantile(qs, 0.5)
}

// vsRef is call time over slices.Sort time on the same keys: the
// totals for a closed loop; for an open loop, whose total is dominated
// by the queueing tail that lat_p99_ms already reports, the median
// call over the mean slices.Sort of one call's keys.
func (t *tally) vsRef() float64 {
	if t.win == nil {
		return float64(t.okNs) / float64(t.refNs)
	}
	return t.latQ(0.5) * 1e6 / (float64(t.refNs) / float64(t.attempted-t.failed))
}

// quantile is the Harrell–Davis estimate of the q-quantile of xs: a
// Beta-weighted average of the order statistics. On a list of a hundred
// calls it is much steadier than any single order statistic, which
// jumps whenever the rank it sits on falls between two groups of
// similar calls. An order statistic whose weight is negligible is
// skipped, so a failed call (+Inf) makes a tail infinite without
// making the median so.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var sum, prev float64
	for i, x := range xs {
		cur := betaInc(float64(i+1)/float64(n), a, b)
		if w := cur - prev; w > 1e-12 {
			sum += w * x
		}
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by
// its continued fraction.
func betaInc(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the incomplete beta continued fraction by Lentz's
// method.
func betaCF(x, a, b float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}

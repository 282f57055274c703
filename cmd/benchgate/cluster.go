package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"wfsort/internal/cluster"
	"wfsort/internal/qos"
	"wfsort/internal/server"
)

// The cluster gate measures the distributed sort tier: a sample-sort
// coordinator (internal/cluster) over 1, 2 and 3 in-process sortd
// backends, measured on a closed-loop batch of multi-shard jobs, plus
// a backend-kill chaos leg.
//
// On a single box, N in-process backends share the same cores, so raw
// CPU cannot scale with the fleet. What does scale — and what this
// gate measures — is admitted capacity: every backend carries the same
// per-host QoS token bucket (the admission plane every real sortd
// deploys with), each shard spends one admission token on its backend,
// and a fleet of N holds N buckets. The coordinator's job is to turn
// those N independent buckets into N times the single-backend job
// rate; splitter cost, scatter/merge overhead and retry slop all eat
// into the multiple. The 3-backend/1-backend throughput ratio is
// therefore a host-independent measure of coordinator efficiency, and
// the gate requires it to stay >= minScale3 (1.8x): a coordinator that
// serializes its fan-out, loses admission slots to misrouting, or
// burns its budget on spurious retries fails on any machine.
//
// Cells: the admission shape (token_rate, token_burst, shard_keys,
// job_keys), cluster/b<N>/<field> per fleet size, scale3, and the kill
// leg's kill_redispatches and kill_identical (0/1).
//
// Every job's output must verify (the coordinator's own ledger plus a
// reference-sort comparison here), and the kill leg must complete with
// at least one redispatch and output byte-identical to the faultless
// run, in any mode. A ledger mismatch additionally dumps
// cluster-ledger-mismatch.json for the CI artifact trail. The rules:
//
//   - scale3 >= 1.8 in-run;
//   - against a comparable-host baseline, each fleet size's jobs/s
//     within 20% on its own (retry backoff adds jitter to otherwise
//     stable token-bucket job rates).
func clusterRules(bool) []rule {
	rs := []rule{{kind: inRun, name: "scale3", num: `^cluster/b3/jobs_per_sec$`, den: "cluster/b1/jobs_per_sec", bound: minScale3}}
	for b := 1; b <= 3; b++ {
		rs = append(rs, rule{kind: drift, name: fmt.Sprintf("cluster/b%d jobs/s drift", b),
			num: fmt.Sprintf(`^cluster/b%d/jobs_per_sec$`, b), bound: 1 - clusterTolerance})
	}
	return rs
}

const (
	minScale3 = 1.8
	// clusterTokenRate/Burst shape each backend's admission bucket: low
	// enough that admission — not the shared CPU — is the binding
	// resource (12 shards/s admits 4 jobs/s per backend, far below the
	// slowest single-core compute rate), which is what makes the
	// scaling ratio host-independent.
	clusterTokenRate  = 12.0
	clusterTokenBurst = 3
	// clusterShardKeys and clusterJobKeys fix the fan-out: every job is
	// exactly jobShards shards, so tokens spent scale with work done.
	clusterShardKeys = 8192
	clusterJobKeys   = 3 * clusterShardKeys
	jobShards        = 3
)

// ledgerArtifact is the cluster-ledger-mismatch.json schema: enough to
// reconstruct which leg lost or duplicated what.
const ledgerArtifactPath = "cluster-ledger-mismatch.json"

type ledgerArtifact struct {
	Leg      string        `json:"leg"`
	Backends int           `json:"backends"`
	JobKeys  int           `json:"job_keys"`
	Error    string        `json:"error"`
	Stats    cluster.Stats `json:"stats"`
}

// ClusterPoint is one fleet size's measurement.
type ClusterPoint struct {
	Backends            int     `json:"backends"`
	Jobs                int     `json:"jobs"`
	JobsPerSec          float64 `json:"jobs_per_sec"`
	KeysPerSec          float64 `json:"keys_per_sec"`
	Redispatches        int64   `json:"redispatches"`
	BackpressureRetries int64   `json:"backpressure_retries"`
}

// newClusterFleet boots n in-process sortd backends, each with its own
// admission bucket for the "cluster" class, and returns the transports
// plus a teardown.
func newClusterFleet(n int) ([]cluster.Transport, func(), error) {
	fleet := make([]cluster.Transport, 0, n)
	var servers []*server.Server
	stop := func() {
		for _, s := range servers {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			s.Shutdown(ctx)
			cancel()
		}
	}
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{
			MaxInFlight: 64,
			TraceOff:    true,
			QoS: &qos.Config{Classes: []qos.ClassQoS{
				{Name: "cluster", Rate: clusterTokenRate, Burst: clusterTokenBurst, Priority: 1},
			}},
		})
		if err != nil {
			stop()
			return nil, nil, err
		}
		servers = append(servers, srv)
		fleet = append(fleet, &cluster.HandlerBackend{Handler: srv.Handler(), Label: fmt.Sprintf("b%d", i)})
	}
	return fleet, stop, nil
}

func clusterJob(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, clusterJobKeys)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 40)
	}
	return keys
}

func measureCluster(w io.Writer, o opts) (*Report, error) {
	jobs, issuers := 48, 6
	if o.quick {
		jobs = 8
	}
	rep := newReport(o.quick, 0)
	rep.add(nil, "token_rate", clusterTokenRate, "")
	rep.add(nil, "token_burst", clusterTokenBurst, "")
	rep.add(nil, "shard_keys", clusterShardKeys, "")
	rep.add(nil, "job_keys", clusterJobKeys, "")
	var rates []float64
	for _, nb := range []int{1, 2, 3} {
		p, err := measureClusterPoint(nb, jobs, issuers)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "cluster/b%-4d %8.1f jobs/s %12.0f keys/s (redispatch=%d bp=%d)\n",
			nb, p.JobsPerSec, p.KeysPerSec, p.Redispatches, p.BackpressureRetries)
		rep.addFields(fmt.Sprintf("cluster/b%d/", nb), p)
		rates = append(rates, p.JobsPerSec)
	}
	rep.add(w, "scale3", rates[2]/rates[0], "x")

	redispatches, identical, err := measureKillLeg(w)
	if err != nil {
		return nil, err
	}
	if !identical {
		return nil, fmt.Errorf("kill leg output differs from the faultless run")
	}
	if redispatches == 0 {
		return nil, fmt.Errorf("kill leg recorded no redispatches — the chaos leg did not bite")
	}
	rep.add(nil, "kill_redispatches", float64(redispatches), "")
	rep.add(nil, "kill_identical", 1, "")
	return rep, nil
}

// measureClusterPoint runs the closed-loop batch against an nb-backend
// fleet: issuers goroutines each pull the next job, sort it through
// the coordinator and verify it against the reference sort.
func measureClusterPoint(nb, jobs, issuers int) (ClusterPoint, error) {
	fleet, stop, err := newClusterFleet(nb)
	if err != nil {
		return ClusterPoint{}, err
	}
	defer stop()
	c, err := cluster.New(cluster.Config{Backends: fleet, ShardKeys: clusterShardKeys, Seed: 3})
	if err != nil {
		return ClusterPoint{}, err
	}
	defer c.Close()

	var (
		mu      sync.Mutex
		firstEB error
		next    int
		wg      sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < issuers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstEB != nil || next >= jobs {
					mu.Unlock()
					return
				}
				j := next
				next++
				mu.Unlock()
				keys := clusterJob(int64(1000 + j))
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				out, err := c.Sort(ctx, "cluster", fmt.Sprintf("bg-%d", j), keys)
				cancel()
				if err == nil {
					err = verifyClusterOut(keys, out)
				}
				if err != nil {
					mu.Lock()
					if firstEB == nil {
						firstEB = fmt.Errorf("job %d on %d backends: %w", j, nb, err)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := c.Stats()
	if firstEB != nil {
		maybeDumpLedger("throughput", nb, firstEB, st)
		return ClusterPoint{}, firstEB
	}
	return ClusterPoint{
		Backends:            nb,
		Jobs:                jobs,
		JobsPerSec:          float64(jobs) / elapsed.Seconds(),
		KeysPerSec:          float64(jobs) * float64(clusterJobKeys) / elapsed.Seconds(),
		Redispatches:        st.Redispatches,
		BackpressureRetries: st.BackpressureRetries,
	}, nil
}

// measureKillLeg runs the chaos leg: the same job sorted by a
// faultless 3-backend fleet and by one whose first backend fail-stops
// after a single shard request — with a 9-shard job over 3 backends,
// that backend still owes shards when it dies, so the kill lands
// mid-fan-out. The outputs must be byte-identical and the kill run
// must have redispatched.
func measureKillLeg(w io.Writer) (int64, bool, error) {
	rng := rand.New(rand.NewSource(424242))
	keys := make([]int64, 9*clusterShardKeys)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 40)
	}

	runOnce := func(kill bool) ([]int64, cluster.Stats, error) {
		fleet, stop, err := newClusterFleet(3)
		if err != nil {
			return nil, cluster.Stats{}, err
		}
		defer stop()
		if kill {
			ks := &cluster.KillSwitch{T: fleet[0]}
			ks.KillAfter(1)
			fleet[0] = ks
		}
		c, err := cluster.New(cluster.Config{
			Backends:  fleet,
			ShardKeys: clusterShardKeys,
			Seed:      3,
			CoolDown:  time.Minute, // stay down for the whole leg
		})
		if err != nil {
			return nil, cluster.Stats{}, err
		}
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		out, err := c.Sort(ctx, "cluster", "kill-leg", keys)
		return out, c.Stats(), err
	}

	ref, _, err := runOnce(false)
	if err != nil {
		return 0, false, fmt.Errorf("kill leg reference run: %w", err)
	}
	out, st, err := runOnce(true)
	if err != nil {
		maybeDumpLedger("kill", 3, err, st)
		return 0, false, fmt.Errorf("kill leg: %w", err)
	}
	if err := verifyClusterOut(keys, out); err != nil {
		return 0, false, fmt.Errorf("kill leg: %w", err)
	}
	identical := clusterBytes(out) == clusterBytes(ref)
	fmt.Fprintf(w, "kill leg: %d redispatches, byte-identical=%v\n", st.Redispatches, identical)
	return st.Redispatches, identical, nil
}

// verifyClusterOut checks a job's output against the reference sort —
// the gate's own verification, independent of the coordinator's
// ledger.
func verifyClusterOut(sent, got []int64) error {
	want := append([]int64(nil), sent...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		return fmt.Errorf("output has %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("output[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

func clusterBytes(keys []int64) string {
	raw := make([]byte, 8*len(keys))
	for i, v := range keys {
		binary.LittleEndian.PutUint64(raw[8*i:], uint64(v))
	}
	return string(raw)
}

// maybeDumpLedger writes the CI artifact when a failure involves the
// coordinator's ledger — the one failure class where "which counters
// said what" is the whole investigation.
func maybeDumpLedger(leg string, backends int, err error, st cluster.Stats) {
	if err == nil || st.LedgerFailures == 0 {
		return
	}
	b, mErr := json.MarshalIndent(ledgerArtifact{
		Leg:      leg,
		Backends: backends,
		JobKeys:  clusterJobKeys,
		Error:    err.Error(),
		Stats:    st,
	}, "", "  ")
	if mErr != nil {
		return
	}
	os.WriteFile(ledgerArtifactPath, append(b, '\n'), 0o644)
}

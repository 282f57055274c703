// Command perfbench is wfsort's end-to-end benchmark. It runs one of
// three seeded workloads against the surfaces users call: the library
// (lib-sort), sortd over loopback HTTP (serve-small) and a cluster
// coordinator over two sortd backends (cluster-bulk). Every output is
// checked; the last line of standard output is one JSON object with
// the run's verdict and metrics. See README.md for the workloads, the
// metrics and the layer ladder.
//
//	perfbench --workload lib-sort --seed 1 --seconds 45 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that times each layer from outside and prints the
// per-layer metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// bench is one workload's seeded job list, built before any timing.
type bench interface {
	// start builds the system under test and warms it up; a non-nil rec
	// installs the traced run's span wrappers.
	start(rec *recorder) (sut, error)
}

// sut is a started system under test.
type sut interface {
	// run times the job list once and checks every output.
	run(rec *recorder) (*tally, error)
	// layers adds the per-layer metrics of a traced pass.
	layers(rec *recorder, add func(name string, v float64))
	close()
}

var workloads = []string{"lib-sort", "serve-small", "cluster-bulk"}

type metricDef struct{ name, unit string }

// The metric lists match BENCHMARK.json; the smoke test holds them to it.
var (
	endToEnd = []metricDef{
		{"keys_per_s", "keys/s"},
		{"lat_p50_ms", "ms"},
		{"lat_p90_ms", "ms"},
		{"setup_s", "s"},
		{"alloc_bytes_per_key", "B/key"},
		{"vs_slices_sort", "x"},
	}
	perLayer = []metricDef{
		{"ref.slices_sort_ns_per_key", "ns/key"},
		{"core.build_ns_per_key", "ns/key"},
		{"core.sum_ns_per_key", "ns/key"},
		{"core.place_ns_per_key", "ns/key"},
		{"core.shuffle_ns_per_key", "ns/key"},
		{"core.ops_per_key", "ops/key"},
		{"sort.ns_per_key.uniform", "ns/key"},
		{"sort.ns_per_key.dup", "ns/key"},
		{"sort.ns_per_key.sorted", "ns/key"},
		{"sort.ns_per_key.reversed", "ns/key"},
		{"native.run_ns_per_key", "ns/key"},
		{"wfsort.facade_ns_per_key.sorter", "ns/key"},
		{"wfsort.facade_ns_per_key.keyed", "ns/key"},
		{"pool.hit_frac", "frac"},
		{"pool.builds", "count"},
		{"server.handler_ms_p50", "ms"},
		{"server.handler_ms_p99", "ms"},
		{"server.batch_reqs_mean", "reqs"},
		{"server.shed_frac", "frac"},
		{"http.transport_ms_p50", "ms"},
		{"cluster.shard_ms_p50", "ms"},
		{"cluster.shard_ms_p90", "ms"},
		{"cluster.self_ms_p50", "ms"},
		{"cluster.attempts_per_shard", "count"},
		{"cluster.max_shard_frac", "frac"},
		{"server.shard_handler_ms_p50", "ms"},
		{"wire.encode_ns_per_key", "ns/key"},
		{"wire.decode_ns_per_key", "ns/key"},
		{"wire.ledger_ns_per_key", "ns/key"},
		{"merge.ns_per_key", "ns/key"},
		{"loadgen.lag_ms_p99", "ms"},
		{"trace.overhead", "x"},
	}
)

// openLoopTail is reported by serve-small only, which is not in
// BENCHMARK.json: a closed loop's list is far too short to put ten calls
// beyond its p99.
var openLoopTail = metricDef{"lat_p99_ms", "ms"}

// sizing fixes the workloads' shapes and how many jobs a second of
// --seconds buys. The per-second rates are planning constants, not
// measurements: both sides of a comparison time exactly the same list.
type sizing struct {
	libMinN, libMaxN int
	libJobsPerSec    float64
	serveRate        float64 // requests per second
	shardKeys        int
	clusterReqPerSec float64
	minJobs          int     // closed-loop floor: ten samples beyond p90, a multiple of eight
	setupReps        int     // set-ups per end-to-end run; setup_s is their median
	miniFrac         float64 // share of a full list a traced run gives each other workload
}

var (
	fullSize = sizing{
		libMinN: 16 << 10, libMaxN: 256 << 10, libJobsPerSec: 3.5,
		serveRate: 250,
		shardKeys: 64 << 10, clusterReqPerSec: 3.2,
		minJobs: 104, setupReps: 3, miniFrac: 1.0 / 6,
	}
	tinySize = sizing{
		libMinN: 1 << 10, libMaxN: 4 << 10, libJobsPerSec: 4,
		serveRate: 100,
		shardKeys: 2 << 10, clusterReqPerSec: 8,
		minJobs: 8, setupReps: 2, miniFrac: 0.5,
	}
)

// jobs is the closed-loop list length for frac of a run of seconds,
// rounded up to a multiple of eight.
func (z sizing) jobs(perSec, seconds, frac float64) int {
	n := int(math.Ceil(perSec*seconds*frac/8)) * 8
	if frac == 1 {
		return max(n, z.minJobs)
	}
	return max(n, 8)
}

func prepare(name string, seed uint64, seconds float64, z sizing, frac float64) (bench, error) {
	switch name {
	case "lib-sort":
		return newLibBench(seed, z.jobs(z.libJobsPerSec, seconds, frac), z.libMinN, z.libMaxN), nil
	case "serve-small":
		return newServeBench(seed, z.serveRate, seconds*frac)
	case "cluster-bulk":
		return newClusterBench(seed, z.jobs(z.clusterReqPerSec, seconds, frac), z.shardKeys), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is one run's verdict and metrics.
type result struct {
	attempted, failed, wrong int
	metrics                  map[string]float64
}

func (r *result) count(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	r.wrong += t.wrong
}

// runEndToEnd sets the system up setupReps times, then times the full job
// list once with tracing off.
func runEndToEnd(name string, seed uint64, seconds float64, z sizing) (*result, error) {
	b, err := prepare(name, seed, seconds, z, 1)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var s sut
	for i := 0; i < z.setupReps; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		if s, err = b.start(nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t, err := s.run(nil)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	alloc := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(t.keys)
	if t.allocPerKey != nil {
		// A closed loop's steady state: the median call. A pool refill
		// after a GC lands on whichever call follows it, so the total
		// depends on when the collector ran.
		alloc = quantile(t.allocPerKey, 0.5)
	}
	r := &result{metrics: map[string]float64{
		"keys_per_s":          float64(t.keysOK) / (float64(t.wallNs) / 1e9),
		"lat_p50_ms":          t.latQ(0.50),
		"lat_p90_ms":          t.latQ(0.90),
		"lat_p99_ms":          t.latQ(0.99),
		"setup_s":             quantile(setups, 0.5),
		"alloc_bytes_per_key": alloc,
		"vs_slices_sort":      t.vsRef(),
	}}
	r.count(t)
	return r, nil
}

// runTraced is the traced run. The named workload runs half its list
// twice, untraced and then traced, which gives trace.overhead; the
// other two run a short traced pass each, so every per-layer metric is
// measured in every traced run.
func runTraced(name string, seed uint64, seconds float64, z sizing, rec *recorder) (*result, error) {
	r := &result{metrics: map[string]float64{}}
	add := func(k string, v float64) { r.metrics[k] = v }
	pass := func(b bench, rec *recorder) (*tally, error) {
		s, err := b.start(rec)
		if err != nil {
			return nil, err
		}
		defer s.close()
		runtime.GC()
		t, err := s.run(rec)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			s.layers(rec, add)
		}
		r.count(t)
		return t, nil
	}
	for _, wl := range workloads {
		frac := z.miniFrac
		if wl == name {
			frac = 0.5
		}
		b, err := prepare(wl, seed, seconds, z, frac)
		if err != nil {
			return nil, err
		}
		var plain *tally
		if wl == name {
			if plain, err = pass(b, nil); err != nil {
				return nil, err
			}
		}
		t, err := pass(b, rec)
		if err != nil {
			return nil, err
		}
		if wl == name {
			add("trace.overhead", t.latQ(0.5)/plain.latQ(0.5))
		}
	}
	return r, nil
}

// provenance identifies what was measured, where and on which seed.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`     // vcs.revision stamped at build time, if any
	SourceHash string `json:"source_sha"` // of the checkout's .go and go.mod files
}

func newProvenance(workload string, seed uint64, seconds, trace int) provenance {
	p := provenance{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Commit: "unknown", SourceHash: sourceHash("."),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				p.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		p.Commit += dirty
	}
	return p
}

// sourceHash digests every .go and go.mod file under root, skipping
// build output, so a result names the code it measured even in a
// checkout that is not a git repository.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the command behind a testable seam; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "lib-sort | serve-small | cluster-bulk")
	seed := fl.Uint64("seed", 1, "seed every input is generated from")
	seconds := fl.Int("seconds", 45, "measured seconds a run is sized for")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	tiny := fl.Bool("tiny", false, "tiny inputs, for a smoke test of every path")
	spans := fl.String("spans", ".bench_build/spans", "directory a traced run writes its spans to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) || fl.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(workloads, "|"))
		return 2
	}
	z := fullSize
	if *tiny {
		z = tinySize
	}
	prov := newProvenance(*workload, *seed, *seconds, *trace)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)

	defs := endToEnd
	if *workload == "serve-small" {
		defs = append(slices.Clone(endToEnd), openLoopTail)
	}
	var res *result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(*workload, *seed, float64(*seconds), z)
	} else {
		defs = perLayer
		rec := newRecorder()
		if res, err = runTraced(*workload, *seed, float64(*seconds), z, rec); err == nil && *spans != "" {
			path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
			if werr := rec.write(path, prov); werr != nil {
				fmt.Fprintln(stderr, "perfbench: writing spans:", werr)
			} else {
				fmt.Fprintf(stdout, "spans %s\n", path)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}

	out := map[string]valueUnit{}
	var bad []string
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, d.name)
			continue
		}
		out[d.name] = valueUnit{v, d.unit}
		fmt.Fprintf(stdout, "metric %-34s %16.6f %s\n", d.name, v, d.unit)
	}
	failFrac := float64(res.failed) / float64(max(1, res.attempted))
	fmt.Fprintf(stdout, "metric %-34s %16.6f %s (attempted %d, failed or refused %d, wrong %d)\n",
		"fail_frac", failFrac, "frac", res.attempted, res.failed, res.wrong)
	if len(bad) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: unmeasurable metrics %v (too many failed calls?)\n", *workload, bad)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.wrong == 0, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.wrong > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d wrong outputs\n", *workload, res.wrong)
		return 1
	}
	return 0
}

package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

var hostA = Host{GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24.0", GOMAXPROCS: 8, NumCPU: 8}
var hostB = Host{GOOS: "darwin", GOARCH: "arm64", GoVersion: "go1.24.0", GOMAXPROCS: 10, NumCPU: 10}

// rep builds a report from a cell map (cells in name order).
func rep(h Host, cells map[string]float64) *Report {
	r := &Report{Host: h}
	for n, v := range cells {
		r.Cells = append(r.Cells, Cell{Name: n, Value: v})
	}
	sort.Slice(r.Cells, func(i, j int) bool { return r.Cells[i].Name < r.Cells[j].Name })
	return r
}

func quick(r *Report) *Report { r.Quick = true; return r }

func capRep(h Host, knee float64) *Report {
	return rep(h, map[string]float64{"slo_ms": capSLOMs, "knee_rps": knee, "point0/offered_rps": 100})
}

// qosRep sets the QoS and FIFO sides so the lat p99 ratio is lat and
// the bulk OK ratio is bulk; fifo scales both FIFO denominators.
func qosRep(lat, bulk, fifo float64) *Report {
	return rep(hostA, map[string]float64{
		"qos/lat/p99_ms": lat * 100, "fifo/lat/p99_ms": fifo * 100,
		"qos/bulk/ok": bulk * 100, "fifo/bulk/ok": fifo * 100,
	})
}

func wireRep(h Host, sortJSON, sortBin, shardJSON, shardBin float64, n int) *Report {
	return rep(h, map[string]float64{
		fmt.Sprintf("sort/json/n%d", n): sortJSON, fmt.Sprintf("sort/binary/n%d", n): sortBin,
		fmt.Sprintf("shard/json/n%d", n): shardJSON, fmt.Sprintf("shard/binary/n%d", n): shardBin,
	})
}

func clusterRep(h Host, b1, b2, b3 float64) *Report {
	return rep(h, map[string]float64{
		"cluster/b1/jobs_per_sec": b1, "cluster/b2/jobs_per_sec": b2, "cluster/b3/jobs_per_sec": b3,
	})
}

// verdictCase is one row of the verdict table: a gate's rules applied
// to a (baseline, current) pair must fail exactly the named rules.
type verdictCase struct {
	group, name string
	gate        string
	base, cur   *Report
	fails       []string // rule names that must fail, in rule order
	mention     string   // text some failure line must contain
}

var verdictCases = []verdictCase{
	// native: absolute drift on comparable hosts.
	{group: "AbsoluteGate", name: "within tolerance", gate: "native",
		base: rep(hostA, map[string]float64{"sharded/p8/n262144": 1000, "flat/p8/n262144": 500}),
		cur:  rep(hostA, map[string]float64{"sharded/p8/n262144": 950, "flat/p8/n262144": 480})},
	{group: "AbsoluteGate", name: "20% drop on one cell", gate: "native",
		base:  rep(hostA, map[string]float64{"sharded/p8/n262144": 1000, "flat/p8/n262144": 500}),
		cur:   rep(hostA, map[string]float64{"sharded/p8/n262144": 800, "flat/p8/n262144": 500}),
		fails: []string{"throughput drift", "sharded/flat ratio drift"}, mention: "worst sharded/p8/n262144"},
	// native: the sharded/flat ratio drift holds across hosts.
	{group: "RatioGateIsHostIndependent", name: "slower host, ratio holds", gate: "native",
		base: rep(hostA, map[string]float64{"sharded/p8/n262144": 1000, "flat/p8/n262144": 500}),
		cur:  rep(hostB, map[string]float64{"sharded/p8/n262144": 400, "flat/p8/n262144": 200})},
	{group: "RatioGateIsHostIndependent", name: "ratio collapsed on another host", gate: "native",
		base:  rep(hostA, map[string]float64{"sharded/p8/n262144": 1000, "flat/p8/n262144": 500}),
		cur:   rep(hostB, map[string]float64{"sharded/p8/n262144": 210, "flat/p8/n262144": 200}),
		fails: []string{"sharded/flat ratio drift"}},
	// native -observed: in-run overhead floors, any host, no baseline cells.
	{group: "ObserverOverheadGate", name: "5% observer overhead", gate: "native",
		base: rep(hostA, map[string]float64{"sharded/p8/n262144": 1000}),
		cur:  rep(hostB, map[string]float64{"sharded/p8/n262144": 1000, "sharded+obs/p8/n262144": 950})},
	{group: "ObserverOverheadGate", name: "25% observer overhead", gate: "native",
		base:  rep(hostA, map[string]float64{"sharded/p8/n262144": 1000}),
		cur:   rep(hostB, map[string]float64{"sharded/p8/n262144": 1000, "sharded+obs/p8/n262144": 750}),
		fails: []string{"observer overhead"}},
	{group: "ObserverOverheadGate", name: "trace plane within tolerance", gate: "native",
		cur: rep(hostB, map[string]float64{"serve+trace/n64": 95, "serve/n64": 100, "serve+trace/n4096": 100, "serve/n4096": 100})},
	{group: "ObserverOverheadGate", name: "trace plane 15% overhead", gate: "native",
		cur:   rep(hostB, map[string]float64{"serve+trace/n64": 85, "serve/n64": 100, "serve+trace/n4096": 85, "serve/n4096": 100}),
		fails: []string{"trace plane overhead"}},
	{group: "SkipsUnknownCells", name: "no shared cells", gate: "native",
		base: rep(hostA, map[string]float64{"sharded/p8/n262144": 1000}),
		cur:  rep(hostA, map[string]float64{"sharded/p4/n65536": 1})},

	// serve.
	{group: "ServeGates", name: "pooled/fresh geomean below 1", gate: "serve",
		cur: rep(hostA, map[string]float64{"pooled/p1/n4096": 90, "fresh/p1/n4096": 100,
			"pooled/p4/n4096": 98, "fresh/p4/n4096": 100}),
		fails: []string{"pooled/fresh"}},
	{group: "ServeGates", name: "pooled/fresh geomean above 1 with one cell below", gate: "serve",
		cur: rep(hostA, map[string]float64{"pooled/p1/n4096": 120, "fresh/p1/n4096": 100,
			"pooled/p4/n4096": 95, "fresh/p4/n4096": 100})},
	{group: "ServeGates", name: "request throughput drift alone", gate: "serve",
		base: rep(hostA, map[string]float64{"pooled/p4/n4096": 100, "fresh/p4/n4096": 100,
			"serve/p4/n400": 500, "serve-crashhalf/p4/n400": 400}),
		cur: rep(hostA, map[string]float64{"pooled/p4/n4096": 100, "fresh/p4/n4096": 100,
			"serve/p4/n400": 400, "serve-crashhalf/p4/n400": 320}),
		fails: []string{"request throughput drift"}},
	{group: "ServeGates", name: "sort throughput drift alone", gate: "serve",
		base: rep(hostA, map[string]float64{"pooled/p4/n4096": 100, "fresh/p4/n4096": 100,
			"serve/p4/n400": 500, "serve-crashhalf/p4/n400": 400}),
		cur: rep(hostA, map[string]float64{"pooled/p4/n4096": 80, "fresh/p4/n4096": 80,
			"serve/p4/n400": 500, "serve-crashhalf/p4/n400": 400}),
		fails: []string{"sort throughput drift"}},
	{group: "ServeGates", name: "pooled/fresh ratio drift on another host", gate: "serve",
		base:  rep(hostA, map[string]float64{"pooled/p4/n4096": 120, "fresh/p4/n4096": 100}),
		cur:   rep(hostB, map[string]float64{"pooled/p4/n4096": 100, "fresh/p4/n4096": 100}),
		fails: []string{"pooled/fresh ratio drift"}},

	// capacity.
	{group: "CapacityGate", name: "20% dip inside the 25% tolerance", gate: "capacity",
		base: capRep(hostA, 1000), cur: capRep(hostA, 800)},
	{group: "CapacityGate", name: "halved knee", gate: "capacity",
		base: capRep(hostA, 1000), cur: capRep(hostA, 500), fails: []string{"capacity knee drift"}},
	{group: "CapacityGate", name: "other host", gate: "capacity",
		base: capRep(hostA, 1000), cur: capRep(hostB, 100)},
	{group: "CapacityGate", name: "other SLO", gate: "capacity",
		base: capRep(hostA, 1000), cur: func() *Report {
			r := capRep(hostA, 100)
			r.Cells[slices.IndexFunc(r.Cells, func(c Cell) bool { return c.Name == "slo_ms" })].Value = 5
			return r
		}()},
	{group: "CapacityGate", name: "quick run vs full baseline", gate: "capacity",
		base: capRep(hostA, 1000), cur: quick(capRep(hostA, 100))},
	{group: "CapacityNoKnee", name: "no knee", gate: "capacity",
		cur: capRep(hostA, 0), fails: []string{"capacity knee exists"}},

	// qos.
	{group: "QoSGates", name: "inside both bounds", gate: "qos", cur: qosRep(0.5, 1.0, 1)},
	{group: "QoSGates", name: "on both bounds", gate: "qos", cur: qosRep(qosLatP99Max, qosBulkOKMin, 1)},
	{group: "QoSGates", name: "no latency win", gate: "qos", cur: qosRep(0.95, 1.0, 1),
		fails: []string{"lat p99 qos/fifo"}},
	{group: "QoSGates", name: "starved bulk", gate: "qos", cur: qosRep(0.5, 0.5, 1),
		fails: []string{"bulk ok qos/fifo"}},
	{group: "QoSGates", name: "empty fifo side", gate: "qos", cur: qosRep(0.5, 0.5, 0),
		fails: []string{"lat p99 qos/fifo", "bulk ok qos/fifo"}, mention: "unmeasurable"},

	// cluster.
	{group: "ClusterGates", name: "scale3 below 1.8", gate: "cluster",
		cur: clusterRep(hostA, 4, 6, 7), fails: []string{"scale3"}},
	{group: "ClusterGates", name: "scale3 above 1.8", gate: "cluster",
		cur: clusterRep(hostA, 4, 8, 12)},
	{group: "ClusterGates", name: "one fleet size 25% down while the others rose", gate: "cluster",
		base: clusterRep(hostA, 4, 8, 12), cur: clusterRep(hostA, 5, 6, 15),
		fails: []string{"cluster/b2 jobs/s drift"}},
	{group: "ClusterGates", name: "quick run vs full baseline", gate: "cluster",
		base: clusterRep(hostA, 4, 8, 12), cur: quick(clusterRep(hostA, 2, 4, 6))},
	{group: "ClusterGates", name: "other host", gate: "cluster",
		base: clusterRep(hostA, 4, 8, 12), cur: clusterRep(hostB, 2, 4, 6)},

	// wire.
	{group: "WireSpeedupFloor", name: "1.8x", gate: "wire",
		cur: wireRep(hostA, 100, 180, 100, 180, 1<<17)},
	{group: "WireSpeedupFloor", name: "on the floor", gate: "wire",
		cur: wireRep(hostA, 100, 100*wireMinSpeedup, 100, 180, 1<<17)},
	{group: "WireSpeedupFloor", name: "sort below the floor", gate: "wire",
		cur: wireRep(hostA, 100, 110, 100, 180, 1<<17), fails: []string{"sort/n131072 binary/json"}},
	{group: "WireSpeedupFloor", name: "both below the floor", gate: "wire",
		cur:   wireRep(hostA, 100, 110, 100, 105, 1<<17),
		fails: []string{"sort/n131072 binary/json", "shard/n131072 binary/json"}},
	{group: "WireBaselineGates", name: "identical", gate: "wire",
		base: wireRep(hostA, 100, 200, 100, 200, 1<<17), cur: wireRep(hostA, 100, 200, 100, 200, 1<<17)},
	{group: "WireBaselineGates", name: "20% slower, same host", gate: "wire",
		base: wireRep(hostA, 100, 200, 100, 200, 1<<17), cur: wireRep(hostA, 80, 160, 80, 160, 1<<17),
		fails: []string{"request throughput drift"}},
	{group: "WireBaselineGates", name: "20% slower, other host", gate: "wire",
		base: wireRep(hostA, 100, 200, 100, 200, 1<<17), cur: wireRep(hostB, 80, 160, 80, 160, 1<<17)},
	{group: "WireBaselineGates", name: "ratio collapse, other host", gate: "wire",
		base: wireRep(hostA, 100, 200, 100, 200, 1<<17), cur: wireRep(hostB, 100, 140, 100, 140, 1<<17),
		fails: []string{"binary/json ratio drift"}},
	// Quick cells at other sizes than the baseline's: only the in-run
	// floor (on the quick large size) applies.
	{group: "WireSkipsUnknownCells", name: "disjoint sizes", gate: "wire",
		base: quick(wireRep(hostA, 100, 200, 100, 200, 1<<17)), cur: quick(wireRep(hostA, 100, 200, 100, 200, 1<<14))},
}

func failed(outs []outcome) (names, lines []string) {
	for _, o := range outs {
		if o.fail {
			names = append(names, o.rule)
			lines = append(lines, o.line)
		}
	}
	return names, lines
}

// runVerdicts checks one group of the verdict table.
func runVerdicts(t *testing.T, group string) {
	n := 0
	for _, c := range verdictCases {
		if c.group != group {
			continue
		}
		n++
		t.Run(c.name, func(t *testing.T) {
			names, lines := failed(evaluate(gates[c.gate].rules(c.cur.Quick), c.base, c.cur))
			if !reflect.DeepEqual(names, c.fails) {
				t.Fatalf("failed rules %q, want %q\n%s", names, c.fails, strings.Join(lines, "\n"))
			}
			if c.mention != "" && !strings.Contains(strings.Join(lines, "\n"), c.mention) {
				t.Fatalf("no failure mentions %q:\n%s", c.mention, strings.Join(lines, "\n"))
			}
		})
	}
	if n == 0 {
		t.Fatalf("no verdict cases in group %q", group)
	}
}

func TestCompareAbsoluteGate(t *testing.T) { runVerdicts(t, "AbsoluteGate") }
func TestCompareRatioGateIsHostIndependent(t *testing.T) {
	runVerdicts(t, "RatioGateIsHostIndependent")
}
func TestCompareObserverOverheadGate(t *testing.T)  { runVerdicts(t, "ObserverOverheadGate") }
func TestCompareSkipsUnknownCells(t *testing.T)     { runVerdicts(t, "SkipsUnknownCells") }
func TestCompareServeGates(t *testing.T)            { runVerdicts(t, "ServeGates") }
func TestCompareCapacityGate(t *testing.T)          { runVerdicts(t, "CapacityGate") }
func TestCompareCapacityNoKnee(t *testing.T)        { runVerdicts(t, "CapacityNoKnee") }
func TestCompareQoSGates(t *testing.T)              { runVerdicts(t, "QoSGates") }
func TestCompareClusterGates(t *testing.T)          { runVerdicts(t, "ClusterGates") }
func TestCompareWireSpeedupFloor(t *testing.T)      { runVerdicts(t, "WireSpeedupFloor") }
func TestCompareWireBaselineGates(t *testing.T)     { runVerdicts(t, "WireBaselineGates") }
func TestCompareWireSkipsUnknownCells(t *testing.T) { runVerdicts(t, "WireSkipsUnknownCells") }

// TestCheckedInBaselines holds every repo-root BENCH_*.json to its
// gate's rules: it passes against itself, and for each rule that
// applies, moving its cells just past the bound fails that rule while
// moving them just inside it passes. In-run cells move in both reports
// (drift stays 1); drift cells move in the current report only; ratio
// drift moves the baseline's numerators.
func TestCheckedInBaselines(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) != len(gates) {
		t.Fatalf("want one baseline per gate, found %v (%v)", paths, err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		t.Run(name, func(t *testing.T) {
			g, ok := gates[name]
			if !ok {
				t.Fatalf("%s names no gate", path)
			}
			self, err := readReport(path)
			if err != nil {
				t.Fatal(err)
			}
			rules := g.rules(self.Quick)
			if names, lines := failed(evaluate(rules, self, self)); len(names) > 0 {
				t.Fatalf("baseline fails against itself:\n%s", strings.Join(lines, "\n"))
			}
			exercised := 0
			for _, r := range rules {
				g0 := 0.0
				for _, o := range evaluate([]rule{r}, self, self) {
					g0 = o.g
				}
				if g0 == 0 {
					continue // no cell of this report is ruled by r
				}
				exercised++
				for _, past := range []bool{true, false} {
					eps := 1e-6
					if past != r.ceil {
						eps = -eps // a floor fails below, a ceiling above
					}
					f := r.bound / g0 * (1 + eps)
					base, cur := clone(self), clone(self)
					switch r.kind {
					case inRun:
						scale(base, r.num, f)
						scale(cur, r.num, f)
					case drift:
						scale(cur, r.num, f)
					case ratioDrift:
						scale(base, r.num, 1/f)
					}
					names, lines := failed(evaluate(rules, base, cur))
					if past && (len(names) == 0 || !slices.Contains(names, r.name)) {
						t.Errorf("%s just past %.3f: failed %q, want it to fail", r.name, r.bound, names)
					}
					if !past && len(names) > 0 {
						t.Errorf("%s just inside %.3f: failed\n%s", r.name, r.bound, strings.Join(lines, "\n"))
					}
				}
			}
			if exercised == 0 {
				t.Fatal("no rule applies to the baseline")
			}
		})
	}
}

func clone(r *Report) *Report {
	c := *r
	c.Cells = append([]Cell(nil), r.Cells...)
	return &c
}

func scale(r *Report, pattern string, f float64) {
	re := regexp.MustCompile(pattern)
	for i := range r.Cells {
		if re.MatchString(r.Cells[i].Name) {
			r.Cells[i].Value *= f
		}
	}
}

func TestHostComparable(t *testing.T) {
	if !hostA.comparable(hostA) {
		t.Fatal("identical hosts must be comparable")
	}
	if hostA.comparable(hostB) {
		t.Fatal("different hosts must not be comparable")
	}
	upgraded := hostA
	upgraded.GoVersion = "go1.99.0"
	if !hostA.comparable(upgraded) {
		t.Fatal("a Go version bump alone must not disable the gate")
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	in := rep(hostA, map[string]float64{"sharded/p8/n262144": 123456.5})
	in.Runs, in.Cells[0].Unit = 3, "elems/s"
	if err := writeReport(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	if _, err := readReport(filepath.Join(t.TempDir(), "missing.json")); !os.IsNotExist(err) {
		t.Fatalf("missing baseline: %v", err)
	}
}

// roundTrip checks a checked-in baseline survives write and read
// unchanged and returns its cells by name.
func roundTrip(t *testing.T, gate string) map[string]float64 {
	in, err := readReport("../../BENCH_" + gate + ".json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_"+gate+".json")
	if err := writeReport(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the %s report", gate)
	}
	return out.index()
}

func TestCapReportRoundTrip(t *testing.T) {
	cells := roundTrip(t, "capacity")
	if cells["knee_rps"] <= 0 || cells["slo_ms"] != capSLOMs || cells["point0/offered_rps"] <= 0 {
		t.Fatalf("capacity cells lost: %v", cells)
	}
}

func TestQoSReportRoundTrip(t *testing.T) {
	cells := roundTrip(t, "qos")
	for _, n := range []string{"fifo/lat/p99_ms", "qos/lat/p99_ms", "fifo/bulk/ok", "qos/bulk/ok", "lat_p99_ratio"} {
		if cells[n] <= 0 {
			t.Fatalf("qos cell %s lost: %v", n, cells)
		}
	}
}

func TestWireReportRoundTrip(t *testing.T) {
	cells := roundTrip(t, "wire")
	if len(cells) != 8 || cells["sort/binary/n131072"] <= 0 {
		t.Fatalf("wire cells lost: %v", cells)
	}
}

func TestMeasureSortsCorrectly(t *testing.T) {
	eps, err := measure(cellSpec{layout: 0, p: 4, n: 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eps <= 0 {
		t.Fatalf("bad throughput %v", eps)
	}
}

func TestUnknownGate(t *testing.T) {
	if err := run(io.Discard, []string{"-gate", "pipeline"}); err == nil || !strings.Contains(err.Error(), "unknown -gate") {
		t.Fatalf("unknown gate accepted: %v", err)
	}
}

func TestQuickSmokeWithoutBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sorts")
	}
	var sb strings.Builder
	err := run(&sb, []string{"-quick", "-runs", "1", "-baseline", filepath.Join(t.TempDir(), "missing.json")})
	if err != nil {
		t.Fatalf("quick smoke must not fail without a baseline: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "native smoke passed") {
		t.Fatalf("expected smoke summary, got:\n%s", sb.String())
	}
}

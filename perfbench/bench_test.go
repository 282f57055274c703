package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"

	"wfsort/internal/cluster"
	"wfsort/internal/wire"
)

// The two corrupt replies that the repo's sum/xor ledger accepts for
// the shard [1 2 4 3]: a value substitution and a compensating
// same-bit flip pair. Both are sorted and of the right length.
var (
	collisionInput   = []int64{1, 2, 4, 3}
	collisionReplies = [][]int64{{0, 3, 3, 4}, {1, 1, 2, 6}}
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmoke runs every workload in tiny mode, untraced and traced, and
// checks that each run prints exactly the metrics BENCHMARK.json names,
// each with its unit (serve-small adds its open-loop tail), and that no
// call failed.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range f.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			want := want[trace]
			if w == "serve-small" && trace == 0 {
				want = maps.Clone(want)
				want[openLoopTail.name] = openLoopTail.unit
			}
			t.Run(fmt.Sprintf("%s/trace%d", w, trace), func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "1",
					"--trace", fmt.Sprint(trace), "--tiny", "--spans", t.TempDir()}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]valueUnit
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %q", name, got, unit)
					}
					if !strings.Contains(out.String(), fmt.Sprintf("metric %-34s", name)) {
						t.Errorf("metric %s not printed", name)
					}
				}
				if !strings.Contains(out.String(), "metric fail_frac") {
					t.Error("fail_frac not printed")
				}
			})
		}
	}
}

// TestCheckCatchesLedgerCollisions holds the output check to the two
// ROADMAP cases: both replies pass the sum/xor fold and fail here.
func TestCheckCatchesLedgerCollisions(t *testing.T) {
	want := digestOf(collisionInput)
	sum, xor := wire.Fold(collisionInput)
	for _, bad := range collisionReplies {
		if s, x := wire.Fold(bad); s != sum || x != xor {
			t.Fatalf("%v is not a sum/xor collision of %v", bad, collisionInput)
		}
		if sortedAs(bad, want) {
			t.Errorf("check accepted %v for input %v", bad, collisionInput)
		}
	}
	if !sortedAs([]int64{1, 2, 3, 4}, want) {
		t.Error("check rejected the correct output")
	}
	if sortedAs([]int64{1, 2, 4, 3}, want) || sortedAs([]int64{1, 2, 3}, want) {
		t.Error("check accepted an unsorted or short output")
	}
}

// corruptBackend answers every shard with a planted reply whose sum/xor
// ledger matches the shard, as a faulty backend could.
type corruptBackend struct{ reply []int64 }

func (b corruptBackend) Name() string { return "corrupt" }

func (b corruptBackend) Probe(context.Context) (cluster.Probe, error) {
	return cluster.Probe{Healthy: true}, nil
}

func (b corruptBackend) SortShard(_ context.Context, sr cluster.ShardRequest) (*cluster.ShardReply, error) {
	sum, xor := wire.Fold(sr.Keys)
	return &cluster.ShardReply{Status: http.StatusOK, Sorted: b.reply, N: len(b.reply), Sum: sum, Xor: xor, TraceEcho: sr.TraceID}, nil
}

// TestPlantedCorruptReplyCounted plants each collision as a backend's
// shard reply behind a real coordinator. The coordinator's own ledger
// lets it through; the benchmark's client path must count the call as
// a wrong answer.
func TestPlantedCorruptReplyCounted(t *testing.T) {
	for _, bad := range collisionReplies {
		coord, err := cluster.New(cluster.Config{Backends: []cluster.Transport{corruptBackend{bad}}})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := cluster.NewHandler(coord, cluster.HandlerConfig{})
		d, err := serveOn(h)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(sortBody{Keys: collisionInput})
		c := newClient()
		out, status, err := postSort(c, d.url, [][]byte{body}, "planted")
		var tl tally
		tl.add(classify(status, err, out, digestOf(collisionInput)), len(collisionInput), 1)
		d.stop()
		coord.Close()
		c.CloseIdleConnections()
		if status != http.StatusOK {
			t.Fatalf("coordinator answered %d (%v); the plant needs it to pass the reply on", status, err)
		}
		if tl.failed != 1 || tl.wrong != 1 {
			t.Errorf("reply %v: failed=%d wrong=%d, want 1 and 1", out, tl.failed, tl.wrong)
		}
	}
}

func TestQuantile(t *testing.T) {
	if got := betaInc(0.5, 2, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("I_0.5(2,2) = %v, want 0.5", got)
	}
	if got := betaInc(0.3, 1, 1); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("I_0.3(1,1) = %v, want 0.3", got)
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := quantile(xs, 0.5); math.Abs(got-50) > 1e-9 {
		t.Errorf("median of 0..100 = %v, want 50", got)
	}
	if got := quantile(xs, 0.9); got < 88 || got > 92 {
		t.Errorf("p90 of 0..100 = %v, want about 90", got)
	}
	xs[0] = math.Inf(1)
	if got := quantile(xs, 0.5); math.IsInf(got, 0) {
		t.Error("one failed call made the median infinite")
	}
	if got := quantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failed call = %v, want +Inf", got)
	}
}

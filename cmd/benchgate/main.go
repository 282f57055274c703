// Command benchgate holds the repo's performance claims to numbers.
// Each gate measures one layer, records the run as named cells in
// BENCH_<gate>.json, and checks the rules it declares as data (see
// rule in harness.go):
//
//	native    the real-goroutine sort over a layout × workers × size
//	          matrix (native.go); -observed adds the observer and
//	          trace-plane overhead legs (observed.go)
//	serve     pooled vs fresh sorts and sortd request throughput,
//	          faultless and crash-half (serve.go)
//	capacity  the open-loop SLO knee (capacity.go)
//	qos       priority scheduling vs FIFO on a two-class overload (qos.go)
//	cluster   coordinator scaling over 1/2/3 backends plus a kill leg
//	          (cluster.go)
//	wire      binary vs JSON request throughput (wire.go)
//
// Usage:
//
//	benchgate [-gate native] [-baseline BENCH_<gate>.json] [-write]
//	          [-quick] [-runs 3] [-observed]
//
// Every run reads the baseline first (a mistyped path fails in
// milliseconds, not after the measurements), measures, and then either
// writes the report (-write) or evaluates the rules. Correctness — an
// unsorted body, a transport error, a kill leg that diverged — fails
// in every mode. -quick runs a reduced measurement as a smoke: rule
// deviations are printed but never fail, and a missing baseline is
// fine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// opts are the measurement flags a gate may read.
type opts struct {
	quick, observed bool
	runs            int
}

// gate is one measured layer and the rules that judge it. rules takes
// the run's mode because a gate may rule on quick-only cell names.
type gate struct {
	measure func(w io.Writer, o opts) (*Report, error)
	rules   func(quick bool) []rule
}

// Fractional drift tolerances. Knees and closed-loop job rates are
// structurally noisier than throughput cells, so they get wider ones.
const (
	tolerance         = 0.10
	clusterTolerance  = 0.20
	capacityTolerance = 0.25
)

var gates = map[string]gate{
	"native":   {measureNative, nativeRules},
	"serve":    {measureServe, serveRules},
	"capacity": {measureCapacity, capacityRules},
	"qos":      {measureQoS, qosRules},
	"cluster":  {measureCluster, clusterRules},
	"wire":     {measureWire, wireRules},
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	name := fs.String("gate", "native", "gate to run: "+strings.Join(gateNames(), "|"))
	baseline := fs.String("baseline", "", "baseline report (default BENCH_<gate>.json)")
	write := fs.Bool("write", false, "write the fresh report to the baseline path instead of gating")
	quick := fs.Bool("quick", false, "reduced measurement; verify correctness but never fail on perf")
	runs := fs.Int("runs", 3, "timed runs per cell (the median is kept)")
	observed := fs.Bool("observed", false, "native: add observer-installed and traced-serving cells and gate their overhead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, ok := gates[*name]
	if !ok {
		return fmt.Errorf("unknown -gate %q (want %s)", *name, strings.Join(gateNames(), ", "))
	}
	if *baseline == "" {
		*baseline = "BENCH_" + *name + ".json"
	}

	var base *Report
	if !*write {
		b, err := readReport(*baseline)
		if err != nil && !(*quick && os.IsNotExist(err)) {
			return fmt.Errorf("reading baseline: %w (run with -gate %s -write to create it)", err, *name)
		}
		base = b
	}
	rep, err := g.measure(w, opts{quick: *quick, observed: *observed, runs: max(*runs, 1)})
	if err != nil {
		return err
	}
	if *write {
		if err := writeReport(*baseline, rep); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s baseline written to %s (%d cells)\n", *name, *baseline, len(rep.Cells))
		return nil
	}

	failed := 0
	for _, o := range evaluate(g.rules(*quick), base, rep) {
		if o.fail {
			failed++
			fmt.Fprintln(w, "REGRESSION:", o.line)
		} else {
			fmt.Fprintln(w, "ok:", o.line)
		}
	}
	if *quick {
		fmt.Fprintf(w, "%s smoke passed: %d cells correct (%d perf deviations reported, not gated)\n",
			*name, len(rep.Cells), failed)
		return nil
	}
	if failed > 0 {
		return fmt.Errorf("%d %s gate rule(s) failed against baseline %s", failed, *name, *baseline)
	}
	fmt.Fprintf(w, "%s gate passed: %d cells against %s\n", *name, len(rep.Cells), *baseline)
	return nil
}

func gateNames() []string {
	var names []string
	for n := range gates {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

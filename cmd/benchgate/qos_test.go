package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestQoSSpecAndConfigValidate(t *testing.T) {
	for _, quick := range []bool{false, true} {
		s := qosSpec(quick)
		if err := s.Validate(); err != nil {
			t.Fatalf("qosSpec(quick=%v) invalid: %v", quick, err)
		}
		if err := qosConfig(s).Validate(); err != nil {
			t.Fatalf("qosConfig(quick=%v) invalid: %v", quick, err)
		}
		// The mix is the contract: exactly the two classes the gate
		// reads back out of the reports, at equal offered rates.
		if len(s.Classes) != 2 || s.Classes[0].Name != qosLatClass || s.Classes[1].Name != qosBulkClass {
			t.Fatalf("qosSpec classes: %+v", s.Classes)
		}
		if s.Classes[0].Arrival.Rate != s.Classes[1].Arrival.Rate {
			t.Fatalf("qos mix is not 50/50: %v vs %v", s.Classes[0].Arrival.Rate, s.Classes[1].Arrival.Rate)
		}
	}
}

// TestRunQoSQuickSmoke drives the full -gate qos quick path end to
// end: trace build, both server boots, replay, ratio computation —
// gating only correctness, exactly as the CI smoke leg runs it.
func TestRunQoSQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two servers and replays a trace twice")
	}
	out := filepath.Join(t.TempDir(), "BENCH_qos.json")
	var buf strings.Builder
	if err := run(&buf, []string{"-gate", "qos", "-quick", "-write", "-baseline", out}); err != nil {
		t.Fatalf("write run: %v\n%s", err, buf.String())
	}
	if r, err := readReport(out); err != nil || !r.Quick || r.index()["fifo/lat/ok"] <= 0 {
		t.Fatalf("written report: %+v (%v)", r, err)
	}
	buf.Reset()
	if err := run(&buf, []string{"-gate", "qos", "-quick", "-baseline", out}); err != nil {
		t.Fatalf("quick gate run: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "qos smoke passed") {
		t.Fatalf("no smoke confirmation:\n%s", buf.String())
	}
}

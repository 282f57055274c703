package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"wfsort/internal/loadgen"
	"wfsort/internal/qos"
	"wfsort/internal/server"
)

// The qos gate measures the QoS plane's reason to exist: under a
// 50/50 two-class overload (latency-sensitive small sorts vs bulk
// ones), the priority scheduler must cut the latency class's p99
// without starving bulk. One seeded trace is generated past the
// serving knee and run twice against otherwise identical in-process
// servers — once FIFO (no QoS config), once with the QoS plane
// installed. Cells: offered_rps, <run>/<class>/<field> for run ∈
// {fifo, qos} and class ∈ {lat, bulk, total} (the loadgen class
// report), and the two ratios lat_p99_ratio and bulk_ok_ratio.
//
// No request in either run may return an unsorted body or hit a
// transport error, in any mode — a scheduler that corrupts or drops
// work is wrong before it is slow. The rules act on within-run ratios,
// so they need no comparable host:
//
//   - the latency class's p99 under QoS must be at most qosLatP99Max
//     of its FIFO p99 — the priority tiers must buy a real latency win
//     at the knee, not a measurement wiggle;
//   - the bulk class's completed-OK count under QoS must be at least
//     qosBulkOKMin of its FIFO count — priority must not become
//     starvation; aging is what keeps this rule honest.
//
// There is deliberately no baseline-drift rule: past the knee the FIFO
// p99 depends on exactly when the queue saturates within the horizon,
// which is chaotic run to run (observed 60 ms to 1.8 s on one host),
// so a ratio-drift comparison would gate on noise. The checked-in
// BENCH_qos.json is the certification record of one full run; the
// gate still requires it outside -quick and -write.

const (
	qosLatP99Max = 0.7
	qosBulkOKMin = 0.8

	qosLatClass  = "lat"
	qosBulkClass = "bulk"
)

func qosRules(bool) []rule {
	return []rule{
		{kind: inRun, name: "lat p99 qos/fifo", num: `^qos/lat/p99_ms$`, den: "fifo/lat/p99_ms", bound: qosLatP99Max, ceil: true},
		{kind: inRun, name: "bulk ok qos/fifo", num: `^qos/bulk/ok$`, den: "fifo/bulk/ok", bound: qosBulkOKMin},
	}
}

// qosSpec is the two-class overload both runs replay: half the offered
// requests are small latency-sensitive sorts, half bulk, at an
// aggregate rate chosen past the serving knee (BENCH_capacity sits
// near 400 req/s on the reference host) so the queue is where requests
// spend their time and scheduling order is what decides p99. Quick
// mode uses deterministic interarrivals and a short horizon so the CI
// smoke is schedule-stable.
func qosSpec(quick bool) *loadgen.Spec {
	s := &loadgen.Spec{
		Seed:      23,
		HorizonMs: 3000,
		Classes: []loadgen.ClassSpec{
			{
				Name:     qosLatClass,
				Arrival:  loadgen.ArrivalSpec{Dist: loadgen.DistPoisson, Rate: 250},
				Size:     loadgen.SizeSpec{Dist: loadgen.SizeFixed, N: 192},
				KeySpace: 1000,
				Weight:   1,
			},
			{
				Name:    qosBulkClass,
				Arrival: loadgen.ArrivalSpec{Dist: loadgen.DistPoisson, Rate: 250},
				Size:    loadgen.SizeSpec{Dist: loadgen.SizeUniform, Min: 1 << 10, Max: 1 << 12},
				Weight:  1,
			},
		},
	}
	if quick {
		s.HorizonMs = 600
		for i := range s.Classes {
			s.Classes[i].Arrival.Dist = loadgen.DistDet
			s.Classes[i].Arrival.Shape = 0
		}
	}
	return s
}

// qosConfig is the QoS side's plane config: buckets sized well above
// the offered rates (admission is not what this gate measures — the
// scheduler is), the latency class at the most urgent tier, bulk two
// tiers down, default aging. No deadlines: shedding has its own tests;
// here every admitted request should be a scheduling decision.
func qosConfig(spec *loadgen.Spec) *qos.Config {
	cfg := &qos.Config{AgingMs: 100}
	for _, c := range spec.Classes {
		prio := 0
		if c.Name == qosBulkClass {
			prio = 2
		}
		cfg.Classes = append(cfg.Classes, qos.ClassQoS{
			Name:     c.Name,
			Rate:     2 * c.Arrival.Rate,
			Burst:    256,
			Priority: prio,
		})
	}
	return cfg
}

func measureQoS(w io.Writer, o opts) (*Report, error) {
	spec := qosSpec(o.quick)
	trace, err := loadgen.BuildTrace(spec)
	if err != nil {
		return nil, err
	}
	rep := newReport(o.quick, 0)
	rep.add(nil, "offered_rps", spec.TotalRate(), "req/s")
	for _, side := range []struct {
		name string
		cfg  *qos.Config
	}{{"fifo", nil}, {"qos", qosConfig(spec)}} {
		run, err := replayQoSTrace(trace, side.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", side.name, err)
		}
		if n := run.Totals.Unsorted; n > 0 {
			return nil, fmt.Errorf("%s run returned %d unsorted bodies", side.name, n)
		}
		if n := run.Totals.Errors; n > 0 {
			return nil, fmt.Errorf("%s run hit %d transport errors", side.name, n)
		}
		for _, c := range append(run.Classes, run.Totals) {
			rep.addFields(side.name+"/"+c.Name+"/", c)
		}
		ci := rep.index()
		fmt.Fprintf(w, "%-5s lat p99 %.1f ms, bulk %.0f ok\n", side.name+":",
			ci[side.name+"/lat/p99_ms"], ci[side.name+"/bulk/ok"])
	}
	ci := rep.index()
	rep.add(w, "lat_p99_ratio", ratio(ci["qos/lat/p99_ms"], ci["fifo/lat/p99_ms"]), "x")
	rep.add(w, "bulk_ok_ratio", ratio(ci["qos/bulk/ok"], ci["fifo/bulk/ok"]), "x")
	return rep, nil
}

// ratio is num/den, or 0 when den is not positive.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// replayQoSTrace boots a fresh in-process server — batching off so
// every request is its own scheduling decision, pipeline on so the
// bounded queue (where the policy acts) is the bottleneck — replays
// the trace against it, and aggregates the per-class report. cfg nil
// is the FIFO control.
func replayQoSTrace(trace *loadgen.Trace, cfg *qos.Config) (*loadgen.Report, error) {
	srv, err := server.New(server.Config{
		PipelineDepth: 64,
		MaxInFlight:   256,
		BatchMaxKeys:  -1,
		Timeout:       5 * time.Second,
		QoS:           cfg,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	res := loadgen.Run(context.Background(), trace, &loadgen.HandlerTarget{Handler: srv.Handler()})
	return loadgen.BuildReport(res), nil
}

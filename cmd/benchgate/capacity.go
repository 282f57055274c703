package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"wfsort/internal/loadgen"
	"wfsort/internal/server"
)

// The capacity gate measures the serving stack's capacity curve: an
// open-loop loadgen sweep (internal/loadgen) offers a fixed two-class
// mix — small duplicate-heavy requests plus bulk distinct ones — at
// doubling rates against an in-process server, brackets the knee where
// p99 crosses the SLO (or shedding passes its bound) and refines it
// geometrically. Cells: slo_ms, max_shed_frac, knee_rps, knee_ok_rps,
// and point<i>/<field> for every sweep point in sweep order (point0 is
// the starting rate).
//
// No point may return an unsorted body — a fast wrong answer is not
// capacity — in any mode. The rules:
//
//   - the knee must exist: knee_rps >= the starting rate (the server
//     meets the SLO at least where the sweep starts; 0 when it fails
//     there);
//   - against a comparable-host baseline with the same SLO, the knee
//     req/s must be within 25%: the knee sits where the latency curve
//     is near-vertical, so its run-to-run noise is structurally larger
//     than a throughput cell's.

// capSLOMs is the serving SLO the knee is defined against: p99 of
// successfully served requests, milliseconds.
const capSLOMs = 50.0

func capacityRules(bool) []rule {
	return []rule{
		{kind: inRun, name: "capacity knee exists", num: `^knee_rps$`, den: "point0/offered_rps", bound: 1},
		{kind: drift, name: "capacity knee drift", num: `^knee_rps$`, bound: 1 - capacityTolerance, same: []string{"slo_ms"}},
	}
}

// capacitySpec is the workload shape every sweep point scales: 4/5 of
// requests are small and duplicate-heavy (the batcher's regime), 1/5
// bulk with distinct keys (the pooled-context regime). Quick mode uses
// deterministic interarrivals so the CI smoke is schedule-stable;
// the full sweep uses poisson arrivals with a weibull bulk tail.
func capacitySpec(quick bool) *loadgen.Spec {
	s := &loadgen.Spec{
		Seed:      11,
		HorizonMs: 3000,
		Classes: []loadgen.ClassSpec{
			{
				Name:     "small",
				Arrival:  loadgen.ArrivalSpec{Dist: loadgen.DistPoisson, Rate: 80},
				Size:     loadgen.SizeSpec{Dist: loadgen.SizeFixed, N: 64},
				KeySpace: 100,
			},
			{
				Name:    "bulk",
				Arrival: loadgen.ArrivalSpec{Dist: loadgen.DistWeibull, Rate: 20, Shape: 0.7},
				Size:    loadgen.SizeSpec{Dist: loadgen.SizeUniform, Min: 1 << 10, Max: 1 << 13},
			},
		},
	}
	if quick {
		s.HorizonMs = 500
		for i := range s.Classes {
			s.Classes[i].Arrival.Dist = loadgen.DistDet
			s.Classes[i].Arrival.Shape = 0
		}
	}
	return s
}

func measureCapacity(w io.Writer, o opts) (*Report, error) {
	spec := capacitySpec(o.quick)
	start, ceiling := spec.TotalRate(), 102_400.0
	refine := 5
	if o.quick {
		ceiling = start * 4
		refine = 0
	}
	kneeRep, err := loadgen.FindKnee(context.Background(), loadgen.KneeConfig{
		CapacityConfig: loadgen.CapacityConfig{
			Base:        spec,
			SLOMs:       capSLOMs,
			MaxShedFrac: 0.05,
			NewTarget:   newCapacityTarget,
			Log:         w,
		},
		Start:  start,
		Max:    ceiling,
		Refine: refine,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "knee: %.1f req/s offered (%.1f ok/s) under p99 <= %.0f ms\n",
		kneeRep.KneeRPS, kneeRep.KneeOKRPS, kneeRep.SLOMs)
	rep := newReport(o.quick, 0)
	rep.addFields("", kneeRep)
	for i, p := range kneeRep.Points {
		if p.Unsorted > 0 {
			return nil, fmt.Errorf("capacity point %.0f req/s returned %d unsorted bodies", p.OfferedRPS, p.Unsorted)
		}
		rep.addFields(fmt.Sprintf("point%d/", i), p)
	}
	return rep, nil
}

// newCapacityTarget boots a fresh in-process server per sweep point so
// one overloaded point's queue debt cannot bleed into the next.
func newCapacityTarget() (loadgen.Target, func(), error) {
	srv, err := server.New(server.Config{MaxInFlight: 64})
	if err != nil {
		return nil, nil, err
	}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	return &loadgen.HandlerTarget{Handler: srv.Handler()}, stop, nil
}

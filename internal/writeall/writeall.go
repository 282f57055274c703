// Package writeall poses the write-all problem of Kanellakis and
// Shvartsman (§2 of the paper): given an array of N cells and P
// fault-prone processors, fill every cell with 1. Write-all is the
// canonical kernel of wait-free cooperation — it is how the sort hands
// out insertions, output writes and simulation rounds — so the package
// exposes each allocation strategy as a uniformly-shaped solver for
// experiments and benchmarks to compare.
package writeall

import (
	"fmt"

	"wfsort/internal/lcwat"
	"wfsort/internal/model"
	"wfsort/internal/pram"
	"wfsort/internal/wat"
)

// Variant selects a work-allocation strategy.
type Variant int

// Write-all strategies.
const (
	// WAT uses the deterministic work-assignment tree (Fig. 1/2):
	// O(K + log N) time at P = N, but O(P) contention at the root.
	WAT Variant = iota
	// LCWAT uses random probing with ALLDONE dissemination (Fig. 8):
	// O(log P) time w.h.p. with O(log P / log log P) contention.
	LCWAT
	// Static assigns cell j to processor j mod P with no reassignment.
	// It is trivially wait-free but NOT fault-tolerant: a crashed
	// processor's cells are never written. It is the baseline that
	// shows why completion tracking is needed at all.
	Static
)

// String returns the variant's mnemonic.
func (v Variant) String() string {
	switch v {
	case WAT:
		return "wat"
	case LCWAT:
		return "lcwat"
	case Static:
		return "static"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Result reports one write-all run.
type Result struct {
	// Metrics is the simulator's cost accounting.
	Metrics *model.Metrics
	// Complete reports whether every cell was filled. Wait-free
	// fault-tolerant variants must always complete; Static does not
	// under crashes.
	Complete bool
	// Missing counts unfilled cells.
	Missing int
}

// Config describes one write-all run.
type Config struct {
	Variant Variant
	N, P    int
	Seed    uint64
	Sched   pram.Scheduler // nil = faultless synchronous
}

// Run solves one write-all instance on the simulator.
func Run(cfg Config) (Result, error) {
	if cfg.N < 1 || cfg.P < 1 {
		return Result{}, fmt.Errorf("writeall: bad size n=%d p=%d", cfg.N, cfg.P)
	}
	var a model.Arena
	var w *wat.WAT
	var lc *lcwat.Tree
	switch cfg.Variant {
	case WAT:
		w = wat.New(&a, cfg.N)
	case LCWAT:
		lc = lcwat.New(&a, cfg.N)
	case Static:
	default:
		return Result{}, fmt.Errorf("writeall: unknown variant %d", cfg.Variant)
	}
	out := a.Array(cfg.N)

	m := pram.New(pram.Config{P: cfg.P, Mem: a.Size(), Seed: cfg.Seed, Sched: cfg.Sched})
	if w != nil {
		w.Seed(m.Memory(), w.Jobs())
	}
	if lc != nil {
		lc.Seed(m.Memory())
	}
	fill := func(p model.Proc) func(j int) {
		return func(j int) { p.Write(out.At(j), 1) }
	}
	met, err := m.Run(func(p model.Proc) {
		switch cfg.Variant {
		case WAT:
			w.Run(p, fill(p))
		case LCWAT:
			lc.Run(p, fill(p))
		case Static:
			for j := p.ID(); j < cfg.N; j += cfg.P {
				p.Write(out.At(j), 1)
			}
		}
	})
	if err != nil {
		return Result{Metrics: met}, err
	}
	res := Result{Metrics: met, Complete: true}
	for j := 0; j < cfg.N; j++ {
		if m.Memory()[out.At(j)] != 1 {
			res.Complete = false
			res.Missing++
		}
	}
	return res, nil
}

package harness

import (
	"runtime"
	"time"

	"wfsort/internal/core"
	"wfsort/internal/lowcont"
	"wfsort/internal/model"
	"wfsort/internal/native"
)

// E18NativeCAS carries the contention story to real hardware. The
// simulator counts concurrent same-word accesses exactly; a real
// machine exposes contention indirectly, and the cleanest observable
// trace is the compare-and-swap failure rate — a CAS fails precisely
// when another worker touched the word in the race window. The
// deterministic sort funnels every worker's first insertions through
// the root's child words, so its failure rate should exceed the §3
// variant's, whose CAS frontier is pre-split into sqrt(P) groups.
func E18NativeCAS(o Options) (*Table, error) {
	n := 100_000
	if o.Quick {
		n = 20_000
	}
	// At least 4 workers so the §3 variant always participates; on
	// smaller hosts the goroutines are oversubscribed, which if
	// anything increases racing — fine for a failure-rate comparison.
	workers := max(runtime.NumCPU(), 4)
	t := &Table{
		ID:    "E18",
		Title: "CAS failure rate on real goroutines",
		Claim: "§3 (transferred to hardware): the pre-split CAS frontier of the randomized variant collides less than the deterministic single root",
		Header: []string{
			"N", "workers", "variant", "cas ops", "cas failures", "failure %", "wall time",
		},
	}
	keys := MakeKeys(InputRandom, n, o.Seed)
	type build func(a *model.Arena) (model.Program, func([]model.Word), func([]model.Word) []int)
	variants := []struct {
		name string
		mk   build
	}{
		{"deterministic", func(a *model.Arena) (model.Program, func([]model.Word), func([]model.Word) []int) {
			s := core.NewSorter(a, n, core.AllocRandomized)
			return s.Program(), func(mem []model.Word) { s.Seed(mem, n) }, s.Places
		}},
		{"lowcontention", func(a *model.Arena) (model.Program, func([]model.Word), func([]model.Word) []int) {
			s := lowcont.New(a, n, workers)
			return s.Program(), s.Seed, s.Places
		}},
	}
	for _, v := range variants {
		var a model.Arena
		prog, seedFn, places := v.mk(&a)
		rt := native.New(native.Config{
			P: workers, Mem: a.Size(), Seed: o.Seed,
			Less: LessFor(keys), CountOps: true,
		})
		seedFn(rt.Memory())
		met, err := rt.Run(prog)
		if err != nil {
			return nil, err
		}
		if !ranksMatch(places(rt.Memory()), keys) {
			t.Notef("%s produced WRONG ranks (BUG)", v.name)
		}
		failPct := 0.0
		if met.CASes > 0 {
			failPct = 100 * float64(met.CASFailures) / float64(met.CASes)
		}
		t.AddRow(n, workers, v.name, met.CASes, met.CASFailures, failPct,
			rt.Elapsed.Round(time.Millisecond).String())
	}
	t.Notef("failure rates are hardware- and load-dependent; the comparison between variants on the same host is the result")
	return t, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Host fingerprints the machine a report was measured on. Absolute
// throughput numbers are only comparable when fingerprints match.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"goversion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
}

func hostFingerprint() Host {
	return Host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// comparable reports whether absolute numbers from the two hosts can
// be gated against each other. The Go version is informational only —
// a toolchain upgrade should surface as a (gated) perf change, not
// silently disable the gate.
func (h Host) comparable(o Host) bool {
	return h.GOOS == o.GOOS && h.GOARCH == o.GOARCH &&
		h.GOMAXPROCS == o.GOMAXPROCS && h.NumCPU == o.NumCPU
}

// Cell is one named measurement.
type Cell struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

// Report is the one BENCH_<gate>.json schema: every gate records its
// run as a flat list of named cells.
type Report struct {
	Host  Host   `json:"host"`
	Quick bool   `json:"quick,omitempty"`
	Runs  int    `json:"runs,omitempty"`
	Cells []Cell `json:"cells"`
}

func newReport(quick bool, runs int) *Report {
	return &Report{Host: hostFingerprint(), Quick: quick, Runs: runs}
}

// add appends a cell, echoing it to w unless w is nil.
func (r *Report) add(w io.Writer, name string, v float64, unit string) {
	if w != nil {
		fmt.Fprintf(w, "%-26s %14.2f %s\n", name, v, unit)
	}
	r.Cells = append(r.Cells, Cell{name, v, unit})
}

// addFields records every number and bool of a JSON-tagged record as a
// cell named prefix+field (bools as 0/1); strings and nested values
// are skipped. The unit follows the field's suffix.
func (r *Report) addFields(prefix string, rec any) {
	b, err := json.Marshal(rec)
	if err != nil {
		panic(err) // plain records of numbers always marshal
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		panic(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, unit := 0.0, ""
		switch x := m[k].(type) {
		case float64:
			v = x
		case bool:
			if x {
				v = 1
			}
		default:
			continue
		}
		switch {
		case strings.HasSuffix(k, "_ms"):
			unit = "ms"
		case strings.HasSuffix(k, "_rps"):
			unit = "req/s"
		case strings.HasSuffix(k, "_frac"):
			unit = "frac"
		case strings.HasSuffix(k, "_per_sec"):
			unit = strings.TrimSuffix(k, "_per_sec") + "/s"
		}
		r.add(nil, prefix+k, v, unit)
	}
}

func (r *Report) index() map[string]float64 {
	m := make(map[string]float64, len(r.Cells))
	for _, c := range r.Cells {
		m[c.Name] = c.Value
	}
	return m
}

func readReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeReport(path string, r *Report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ruleKind says what a rule's geomean is taken over.
type ruleKind int

const (
	// inRun: cur[num]/cur[den] per pair, within this run alone, so it
	// holds on any host with no baseline.
	inRun ruleKind = iota
	// drift: cur[c]/base[c] over the cells matching num. Absolute
	// numbers, so only against a comparable host's baseline.
	drift
	// ratioDrift: (cur[num]/cur[den]) / (base[num]/base[den]) per
	// pair: a machine-relative ratio's change, so any host.
	ratioDrift
)

// rule is one gate check, declared as data. Its geomean must be >=
// bound (<= when ceil). Single cells are too noisy to gate at useful
// tolerances, so rules act on geomeans; a per-point check is a rule
// whose pattern matches one cell.
type rule struct {
	kind ruleKind
	name string
	// num is a regexp over cell names. For pair rules, den is the
	// replacement template that names each num cell's denominator.
	num, den string
	bound    float64
	ceil     bool
	// same lists cells that must hold equal values in base and cur
	// for a drift rule to apply (a changed SLO redefines the knee).
	same []string
}

// outcome is one applicable rule's result: its geomean g and a
// printable line.
type outcome struct {
	rule string
	g    float64
	line string
	fail bool
}

// evaluate runs every applicable rule of cur (against base for the
// drift kinds; base may be nil). Drift rules also skip a baseline
// taken in the other -quick mode: its cells measure other sizes.
// An in-run rule whose pattern matches a cell but whose pair cannot
// be formed from positive values fails as unmeasurable.
func evaluate(rules []rule, base, cur *Report) []outcome {
	ci := cur.index()
	var bi map[string]float64
	if base != nil {
		bi = base.index()
	}
	var out []outcome
	for _, r := range rules {
		if r.kind != inRun && !driftApplies(r, base, cur, bi, ci) {
			continue
		}
		re := regexp.MustCompile(r.num)
		var vals []float64
		worst, worstV, unmeasurable := "", 0.0, ""
		for _, c := range cur.Cells {
			if !re.MatchString(c.Name) {
				continue
			}
			dn := re.ReplaceAllString(c.Name, r.den)
			var v float64
			switch r.kind {
			case inRun:
				d, ok := ci[dn]
				if !ok || d <= 0 || c.Value <= 0 {
					unmeasurable = fmt.Sprintf("%s/%s has no positive pair", c.Name, dn)
					continue
				}
				v = c.Value / d
			case drift:
				b := bi[c.Name]
				if b <= 0 || c.Value <= 0 {
					continue // not in the baseline: nothing to drift from
				}
				v = c.Value / b
			case ratioDrift:
				cd, bn, bd := ci[dn], bi[c.Name], bi[dn]
				if cd <= 0 || bn <= 0 || bd <= 0 {
					continue
				}
				v = (c.Value / cd) / (bn / bd)
			}
			if worst == "" || (v < worstV) != r.ceil {
				worst, worstV = c.Name, v
			}
			vals = append(vals, v)
		}
		if unmeasurable != "" {
			out = append(out, outcome{r.name, 0, fmt.Sprintf("%s: unmeasurable: %s", r.name, unmeasurable), true})
			continue
		}
		if len(vals) == 0 {
			continue
		}
		g, cmp := geomean(vals), ">="
		fail := g < r.bound
		if r.ceil {
			cmp, fail = "<=", g > r.bound
		}
		out = append(out, outcome{r.name, g, fmt.Sprintf("%s: geomean %.3f (gate %s %.2f) over %d cells, worst %s at %.3f",
			r.name, g, cmp, r.bound, len(vals), worst, worstV), fail})
	}
	return out
}

func driftApplies(r rule, base, cur *Report, bi, ci map[string]float64) bool {
	if base == nil || base.Quick != cur.Quick {
		return false
	}
	if r.kind == drift && !base.Host.comparable(cur.Host) {
		return false
	}
	for _, s := range r.same {
		if bi[s] != ci[s] {
			return false
		}
	}
	return true
}

// geomean is exact for one value, so a single-cell rule compares the
// cell itself against its bound.
func geomean(vs []float64) float64 {
	if len(vs) == 1 {
		return vs[0]
	}
	var logSum float64
	for _, v := range vs {
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vs)))
}

// median returns the middle element (lower-middle for even counts) of
// the measured durations.
func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

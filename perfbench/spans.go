package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call across a layer boundary, timed from the
// benchmark's side of that boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 when the span has no parent
	Name   string `json:"name"`
	Req    string `json:"req"`           // request the call belongs to
	Key    string `json:"key,omitempty"` // finer id: a shard attempt's trace id
	Start  int64  `json:"start_ns"`      // since the recorder began
	End    int64  `json:"end_ns"`
	// InnerNs is interior time the layer reported about itself
	// (wfsort.SortTrace.RunNs), 0 when it reported none.
	InnerNs int64 `json:"inner_ns,omitempty"`
	N       int   `json:"n,omitempty"` // keys in the call
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps a traced run's spans in memory; they are written out
// once the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// add keeps s unless it belongs to a warm-up call.
func (r *recorder) add(s span) {
	if s.Req == "" || s.Req == warmID {
		return
	}
	r.mu.Lock()
	s.ID, s.Parent = len(r.spans), -1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// named returns a copy of the spans called name.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// link sets the parent of every child span to the parent-named span
// that shares its request (matched on Key when byKey) and encloses it.
func (r *recorder) link(child, parent string, byKey bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := func(s span) string {
		if byKey {
			return s.Key
		}
		return s.Req
	}
	parents := map[string][]int{}
	for i, s := range r.spans {
		if s.Name == parent {
			parents[id(s)] = append(parents[id(s)], i)
		}
	}
	for i := range r.spans {
		c := &r.spans[i]
		if c.Name != child {
			continue
		}
		for _, pi := range parents[id(*c)] {
			if p := r.spans[pi]; p.Start <= c.Start && c.End <= p.End {
				c.Parent = p.ID
				break
			}
		}
	}
}

// selfMs is each parent-named span's self time in milliseconds: its
// duration minus the part of its interval that its child spans cover.
func (r *recorder) selfMs(parent string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for _, p := range r.spans {
		if p.Name != parent {
			continue
		}
		cs := kids[p.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), p.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, float64(p.dur()-covered)/1e6)
	}
	return out
}

// write stores every span, one JSON object a line, after a provenance
// header line.
func (r *recorder) write(path string, prov provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(prov); err != nil {
		f.Close()
		return err
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	return f.Close()
}

// wrap records a span named name around every call to h. The request
// id is the X-Trace-Id header up to its first '.', the key the whole
// header (a shard attempt's id "<req>.s<i>.a<j>").
func (r *recorder) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		start := r.now()
		h.ServeHTTP(w, q)
		key := q.Header.Get(traceHeader)
		req, _, _ := strings.Cut(key, ".")
		r.add(span{Name: name, Req: req, Key: key, Start: start, End: r.now()})
	})
}

const (
	traceHeader = "X-Trace-Id"
	warmID      = "warm" // trace id of warm-up requests, which record no spans
)

// durMs returns the durations of spans in milliseconds.
func durMs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

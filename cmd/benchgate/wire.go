package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"wfsort/internal/server"
	"wfsort/internal/wire"
)

// The wire gate measures the binary codec's reason to exist: request
// throughput through the full serving path (decode, sort, encode) must
// be materially higher over the wire codec than over JSON on large
// bodies, where codec cost is a real share of request time.
//
// Cells are "<endpoint>/<codec>/n<N>" in req/s for {sort, shard} ×
// {json, binary} × {medium, large} request sizes, measured against the
// in-process handler — no sockets, so the comparison isolates codec +
// serving cost from the network stack. The two codecs interleave run
// by run on one server instance, so machine drift biases neither side.
// The rules:
//
//   - in-run, any host: the binary/json req/s ratio on each
//     large-request cell must be >= wireMinSpeedup. This is the
//     codec's contract — fall below it and shipping two codecs is pure
//     complexity.
//   - against a comparable-host baseline: geomean absolute req/s
//     within 10%.
//   - any host: the geomean binary/json ratio change vs the baseline's
//     within 10%.

// wireMinSpeedup is the hard floor on the large-cell binary/json
// request-throughput ratio.
const wireMinSpeedup = 1.15

// wireSizes are the medium and large request sizes.
func wireSizes(quick bool) (medium, large int) {
	if quick {
		return 1 << 12, 1 << 14
	}
	return 1 << 14, 1 << 17
}

func wireRules(quick bool) []rule {
	_, large := wireSizes(quick)
	var rs []rule
	for _, ep := range []string{"sort", "shard"} {
		rs = append(rs, rule{kind: inRun, name: fmt.Sprintf("%s/n%d binary/json", ep, large),
			num: fmt.Sprintf(`^%s/binary/n%d$`, ep, large), den: fmt.Sprintf("%s/json/n%d", ep, large), bound: wireMinSpeedup})
	}
	return append(rs,
		rule{kind: drift, name: "request throughput drift", num: `^(sort|shard)/`, bound: 1 - tolerance},
		rule{kind: ratioDrift, name: "binary/json ratio drift", num: `^(\w+)/binary/(.*)$`, den: `${1}/json/${2}`, bound: 1 - tolerance})
}

func measureWire(w io.Writer, o opts) (*Report, error) {
	medium, large := wireSizes(o.quick)
	rep := newReport(o.quick, o.runs)
	for _, endpoint := range []string{"sort", "shard"} {
		for _, n := range []int{medium, large} {
			jsonRPS, binRPS, err := measureWirePair(endpoint, n, o.runs)
			if err != nil {
				return nil, err
			}
			rep.add(w, fmt.Sprintf("%s/json/n%d", endpoint, n), jsonRPS, "req/s")
			rep.add(w, fmt.Sprintf("%s/binary/n%d", endpoint, n), binRPS, "req/s")
			fmt.Fprintf(w, "%-26s %14.2fx\n", fmt.Sprintf("%s/binary:json/n%d", endpoint, n), binRPS/jsonRPS)
		}
	}
	return rep, nil
}

// measureWirePair times one (endpoint, size) cell under both codecs,
// interleaved run by run on one server instance. Each request's reply
// is decoded and order-verified inside the timed window — the client
// side of the codec is part of what the wire format buys.
func measureWirePair(endpoint string, n, runs int) (jsonRPS, binRPS float64, err error) {
	srv, err := server.New(server.Config{Workers: 4, MaxInFlight: 64, TraceOff: true})
	if err != nil {
		return 0, 0, err
	}
	defer srv.Shutdown(context.Background())
	handler := srv.Handler()

	rng := rand.New(rand.NewSource(int64(n)))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 40)
	}
	jsonBody, err := json.Marshal(map[string]any{"keys": keys})
	if err != nil {
		return 0, 0, err
	}
	binBody := wire.AppendBlock(nil, wire.KindRequest, keys)
	path := "/" + endpoint

	oneReq := func(binary bool) error {
		body, contentType := jsonBody, "application/json"
		if binary {
			body, contentType = binBody, wire.ContentType
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s n=%d: status %d", path, n, rec.Code)
		}
		if !binary {
			return decodeSorted(rec.Body, n)
		}
		wantKind := byte(wire.KindReply)
		if endpoint == "shard" {
			wantKind = wire.KindShardReply
		}
		sorted, _, err := wire.ReadBlock(rec.Body, wantKind, 0)
		if err != nil {
			return fmt.Errorf("%s n=%d: %w", path, n, err)
		}
		return checkSorted(sorted, n)
	}

	iters := 1 << 19 / n
	if iters < 4 {
		iters = 4
	}
	timeRun := func(binary bool) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := oneReq(binary); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	jsonTimes := make([]time.Duration, 0, runs)
	binTimes := make([]time.Duration, 0, runs)
	for r := 0; r <= runs; r++ {
		tb, err := timeRun(true)
		if err != nil {
			return 0, 0, err
		}
		tj, err := timeRun(false)
		if err != nil {
			return 0, 0, err
		}
		if r > 0 { // run 0 warms the pool and the heap
			binTimes = append(binTimes, tb)
			jsonTimes = append(jsonTimes, tj)
		}
	}
	work := float64(iters)
	return work / median(jsonTimes).Seconds(), work / median(binTimes).Seconds(), nil
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfsort"
)

// TestSoak hammers the full serving path — admission, batching, pooled
// contexts, the resident crew — from concurrent clients while the fault
// plane kills and respawns workers inside every sort. Every 200 must
// carry a correctly sorted body (429/503/504 are legitimate
// backpressure), and when the clients stop, the server must drain
// cleanly.
//
// Short mode runs a few hundred requests; the full run goes for longer
// wall-clock and larger sizes. The test is run under -race in CI.
func TestSoak(t *testing.T) {
	duration := 10 * time.Second
	clients := 8
	maxN := 20_000
	if testing.Short() {
		duration = 1500 * time.Millisecond
		clients = 4
		maxN = 4_000
	}

	s, err := New(Config{
		Workers:     4,
		MaxInFlight: 32,
		BatchWindow: 2 * time.Millisecond,
		// Two kill+revive faults per worker per sort: the soak's point
		// is that this is invisible in the responses.
		Options: []wfsort.Option{wfsort.WithChurn(2), wfsort.WithSeed(42)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ok, rejected, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			client := &http.Client{Timeout: 30 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Mix tiny (batched), medium (pooled) and large requests.
				var n int
				switch rng.Intn(4) {
				case 0:
					n = rng.Intn(64)
				case 1, 2:
					n = 100 + rng.Intn(2000)
				default:
					n = maxN/2 + rng.Intn(maxN/2)
				}
				keys := make([]int64, n)
				for i := range keys {
					keys[i] = int64(rng.Intn(500))
				}
				body, _ := json.Marshal(sortRequest{Keys: keys})
				resp, err := client.Post(ts.URL+"/sort", "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					t.Errorf("client %d: %v", c, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var out sortResponse
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
						failed.Add(1)
						t.Errorf("client %d: decode: %v", c, err)
						resp.Body.Close()
						return
					}
					resp.Body.Close()
					if len(out.Sorted) != n {
						failed.Add(1)
						t.Errorf("client %d: %d keys back for %d sent", c, len(out.Sorted), n)
						return
					}
					// Sorted and a permutation: count-compare both ways.
					counts := map[int64]int{}
					for _, k := range keys {
						counts[k]++
					}
					for i, k := range out.Sorted {
						if i > 0 && out.Sorted[i-1] > k {
							failed.Add(1)
							t.Errorf("client %d: unsorted at %d", c, i)
							return
						}
						counts[k]--
					}
					for k, cnt := range counts {
						if cnt != 0 {
							failed.Add(1)
							t.Errorf("client %d: key %d multiplicity off by %d", c, k, cnt)
							return
						}
					}
					ok.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable,
					http.StatusGatewayTimeout:
					// All three are documented backpressure. 504 in
					// particular is the cancellation path working: under
					// the race detector on a small host, 32 admitted
					// requests sharing the CPU can push a large sort past
					// its deadline, and the server must abort it cleanly
					// rather than wedge — which is exactly what a 504 is.
					resp.Body.Close()
					rejected.Add(1)
				default:
					resp.Body.Close()
					failed.Add(1)
					t.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
			}
		}(c)
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("soak produced no successful sorts")
	}
	if failed.Load() != 0 {
		t.Fatalf("%d requests failed", failed.Load())
	}

	// Drain must complete with the fleet quiet.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	st := s.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in_flight = %d after drain", st.InFlight)
	}
	t.Logf("soak: %d ok, %d backpressured, pool %+v", ok.Load(), rejected.Load(), s.PoolStats())
}

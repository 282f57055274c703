# Convenience targets; everything is plain `go` underneath.

.PHONY: all test race bench benchgate benchgate-baseline trace-gate loadgen openloop sortd sortc soak chaos chaos-quick experiments experiments-quick stress obs fmt vet lint cover

all: vet test

test:
	go test ./...

race:
	go test -race -count=1 ./...

bench:
	go test -bench=. -benchmem .

# Gate native-sort throughput against the checked-in BENCH_native.json.
benchgate:
	go run ./cmd/benchgate

# Re-measure and overwrite the baseline (run on the reference machine).
benchgate-baseline:
	go run ./cmd/benchgate -write

# The other gates, each against its checked-in BENCH_<gate>.json
# (rules and bounds in cmd/benchgate/<gate>.go):
#   serve-gate     pooled/fresh sort geomean >= 1.0x; sortd req/s,
#                  faultless and with half the workers crash-stopped
#   capacity-gate  the open-loop knee where p99 crosses the 50 ms SLO
#   qos-gate       lat p99 <= 0.7x FIFO, bulk OK >= 0.8x FIFO, on one
#                  two-class overload trace (BENCH_qos.json is the
#                  certification record)
#   cluster-gate   3-backend job rate >= 1.8x the 1-backend rate; the
#                  kill leg redispatches and stays byte-identical
#   wire-gate      large-request binary/json req/s >= 1.15x on /sort
#                  and /shard
# <gate>-gate-baseline re-measures that gate's baseline. (Pattern
# targets stay off .PHONY: make skips implicit rules for phony targets.)
%-gate:
	go run ./cmd/benchgate -gate $*

%-gate-baseline:
	go run ./cmd/benchgate -gate $* -write

# Gate the trace plane: race-run the request-tracing, burn-rate and
# flight-recorder tests, then measure instrumented-vs-TraceOff serving
# throughput (geomean must stay >= 0.90x).
trace-gate:
	go test -race -count=1 -run 'TestTrace|TestRejectionSpans|TestBurn|TestMetricsProm|TestStageHist|TestSpanLogLapped|TestFlightRecorder|TestExemplars|TestPerfettoAddSpans|TestPipelineRunTiming|TestRunStamps|TestHandlerTargetStages' ./internal/server ./internal/obs ./internal/native ./internal/loadgen
	go run ./cmd/benchgate -quick -observed -runs 1

# Open-loop load generator against a live service. See cmd/loadgen for
# spec format, -record/-replay, and -capacity sweeps.
loadgen:
	go run ./cmd/loadgen -spec workload.json -url http://localhost:8080

# In-process open-loop soak: mixed classes, a burst, worker churn, with
# the server's per-class counters cross-checked against the client
# ledger. Race detector on.
openloop:
	go test -race -run TestOpenLoopSoak -count=1 -v ./internal/server

# The sort service: POST /sort on :8080, graceful drain on SIGTERM.
sortd:
	go run ./cmd/sortd

# The sample-sort coordinator: scatters key-range shards across sortd
# backends, k-way merges the results. Needs -backends (see cmd/sortc).
sortc:
	go run ./cmd/sortc -backends http://localhost:8080

# Long soak: concurrent clients, mixed sizes, worker churn mid-request,
# then a drain that must come back clean. Race detector on. The cluster
# leg churns whole backends under open-loop load and cross-checks the
# coordinator's accepted-shard ledger against each backend's own.
soak:
	go test -race -run 'TestSoak|TestClusterSoak' -count=1 ./internal/server ./internal/cluster

# Fault-injection sweep: adversary policies x P x layouts, certified
# against the wait-freedom op ceiling, with pram/native differentials.
chaos:
	go run ./cmd/chaos

chaos-quick:
	go run ./cmd/chaos -quick

experiments:
	go run ./cmd/experiments

experiments-quick:
	go run ./cmd/experiments -quick

stress:
	go run ./cmd/stress -duration 1m

# Observability demo: a stress campaign with the live endpoint up
# (/metrics, /debug/vars, /debug/pprof/ on :6060) plus a native
# Perfetto trace written to obs-trace.json — open it at
# https://ui.perfetto.dev.
obs:
	go run ./cmd/trace -runtime native -n 100000 -variant rand -out obs-trace.json
	go run ./cmd/stress -duration 30s -listen :6060

fmt:
	gofmt -w .

vet:
	go vet ./...

# Static analysis: vet always; staticcheck when installed (CI installs
# it, local runs degrade gracefully).
lint:
	go vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@latest)" ; \
	fi

cover:
	go test -coverprofile=cover.out ./internal/... .
	go tool cover -func=cover.out | tail -1

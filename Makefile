# Local targets mirroring .github/workflows/ci.yml, so `make ci` runs the
# same gate the workflow enforces.

GO ?= go

.PHONY: build vet fmt lintdoc test race perfbench race-live bench bench-json bench-onesided benchguard chaos onesided multitenant loadgen trace-export flows scale ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails if any file is unformatted (CI behavior); run `gofmt -w .` to fix.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "unformatted files:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# Doc lint: every exported declaration needs a doc comment (go/ast-based,
# no external linter).
lintdoc:
	$(GO) run ./cmd/lintdoc

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...
	$(GO) test -race -count=50 ./internal/sim

# The host-cost benchmark's own tests (every workload at tiny size); its
# module sits outside the root `go test ./...`.
perfbench:
	cd perfbench && $(GO) test .

# Live-backend smoke under the race detector: the goroutine transport and
# progress engine, driven end to end through the bench ping-pong.
race-live:
	$(GO) test -race ./internal/transport/live/
	$(GO) test -race ./internal/core/ -run 'Conformance|Live'
	$(GO) run -race ./cmd/dcgn-bench -backend live -exp pingpong

# Bench smoke: every benchmark runs exactly once so they can't bit-rot.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Wall-clock throughput and allocation profile of the hot workloads
# (high-fanout matching + Table 3 apps), written as JSON.
bench-json:
	$(GO) run ./cmd/dcgn-bench -json BENCH_6.json

# Classic-vs-triggered one-sided ablation: GPU->CPU one-way latency over
# both paths per Fig. 6 size, written as JSON.
bench-onesided:
	$(GO) run ./cmd/dcgn-bench -onesided BENCH_7.json

# One-sided lane gate: conformance + triggered-path suite and the chaos
# differential under the race detector, then the ablation JSON.
onesided:
	$(GO) test -race ./internal/core/ -run 'OneSided|Triggered'
	$(GO) test -race ./internal/core/ -run 'ChaosOneSided'
	$(GO) run ./cmd/dcgn-bench -onesided BENCH_7.json

# Allocation tripwire: fails if allocs/op on the matching benchmarks
# regresses >20% against the committed baseline.
benchguard:
	$(GO) test -run='^$$' -bench='BenchmarkMatchIndex|BenchmarkHighFanoutMatching|BenchmarkEnginePingPong/(sim|live-multitenant)|BenchmarkShardedHighFanout|BenchmarkLoadgenArrivals' \
		-benchtime=1x -benchmem ./... | $(GO) run ./cmd/benchguard -baseline testdata/bench_baseline.json

# Scale smoke mirroring the CI scale/determinism matrix: a 1024-node sharded
# run (virtual results asserted identical to -shards 1) plus the seeded
# shard-determinism diff at shard counts 1, 2 and 8 on 256 nodes.
scale:
	$(GO) run ./cmd/dcgn-bench -nodes 1024 -shards 8
	$(GO) run ./cmd/dcgn-bench -scale-verify "1,2,8" -nodes 256

# Chaos smoke: the wire-hardening differential (reliability layer vs
# injected faults) under the race detector on both backends, plus the
# lossy-wire application runs and a seeded standalone chaos run.
chaos:
	$(GO) test -race ./internal/core/ -run 'Chaos|Reliable'
	$(GO) test ./internal/apps/ -run 'SurvivesLossyWire'
	$(GO) run -race ./cmd/dcgn-bench -chaos -backend live -chaos-collfail 0.2 -chaos-seed 11

# Multi-tenant runtime gate: the Runtime suite (admission, fair-share,
# isolation, cancel, control API) under the race detector — including the
# 8-concurrent-live-jobs test — plus the per-job-overhead benches and the
# fairness/overhead JSON report.
multitenant:
	$(GO) test -race ./internal/core/ -run 'Runtime'
	$(GO) test -run='^$$' -bench='BenchmarkEnginePingPong/(sim-multitenant|live-multitenant)' -benchtime=1x -benchmem .
	$(GO) run ./cmd/dcgn-bench -jobs 8 -tenants "light:1,heavy:3" -multitenant-out BENCH_8.json

# Loadgen gate mirroring the CI loadgen-smoke job: the workload-layer
# suite under the race detector, a seeded Poisson run on the sim backend
# diffed for byte-identical SLO reports, and the same preset on the live
# backend.
loadgen:
	$(GO) test -race ./internal/loadgen/
	$(GO) run ./cmd/dcgn-loadgen -preset mixed -rate 300 -duration 1s -seed 7 -o /tmp/dcgn-slo-a.json
	$(GO) run ./cmd/dcgn-loadgen -preset mixed -rate 300 -duration 1s -seed 7 -o /tmp/dcgn-slo-b.json
	diff /tmp/dcgn-slo-a.json /tmp/dcgn-slo-b.json
	$(GO) run ./cmd/dcgn-loadgen -preset chat -rate 100 -duration 1s -backend live -nodes 8 -seed 7 -o /tmp/dcgn-slo-live.json

# Exporter validation: the typed-struct schema tests plus a 4-node fixture
# run through every dcgn-trace output format.
trace-export:
	$(GO) test ./cmd/dcgn-trace/ ./internal/obs/
	$(GO) run ./cmd/dcgn-trace -nodes 4 -format chrome -o /tmp/dcgn-trace.json
	$(GO) run ./cmd/dcgn-trace -nodes 4 -format csv -o /tmp/dcgn-trace.csv
	$(GO) run ./cmd/dcgn-trace -nodes 4 -metrics > /dev/null

# Causal flow-tracing gate: the stitching/critical-path suites under the
# race detector, the chaos differential with flows on, a seeded
# determinism diff of the dcgn-trace critical-path text (two runs must
# render byte-identically), a Perfetto flow-event schema check on the
# exported chrome trace, and the flows-on loadgen determinism diff.
flows:
	$(GO) test -race ./internal/obs/flow/
	$(GO) test -race ./internal/core/ -run 'Flow|ChaosDifferentialFlows'
	$(GO) test ./internal/obs/ -run 'ChromeTraceFlowEvents'
	$(GO) run ./cmd/dcgn-trace -nodes 4 -critical-path -format chrome -o /tmp/dcgn-flow.json > /tmp/dcgn-cp-a.txt
	$(GO) run ./cmd/dcgn-trace -nodes 4 -critical-path -format chrome -o /tmp/dcgn-flow.json > /tmp/dcgn-cp-b.txt
	diff /tmp/dcgn-cp-a.txt /tmp/dcgn-cp-b.txt
	grep -q '"ph": *"s"' /tmp/dcgn-flow.json
	grep -q '"ph": *"f"' /tmp/dcgn-flow.json
	grep -q '"bp": *"e"' /tmp/dcgn-flow.json
	$(GO) run ./cmd/dcgn-loadgen -preset chat -rate 300 -duration 1s -seed 7 -flows -o /tmp/dcgn-slo-flows-a.json
	$(GO) run ./cmd/dcgn-loadgen -preset chat -rate 300 -duration 1s -seed 7 -flows -o /tmp/dcgn-slo-flows-b.json
	diff /tmp/dcgn-slo-flows-a.json /tmp/dcgn-slo-flows-b.json

ci: build vet fmt lintdoc test race perfbench race-live bench benchguard chaos onesided multitenant loadgen trace-export flows scale

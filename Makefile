# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test fmt-check race cover bench bench-payload bench-cache bench-check bench-all bench-e2e bench-e2e-trace experiments chaos fuzz clean

all: build test

# The cross-builds keep the portable packed-varint loop and the _amd64 file
# split compiling (both offline: the toolchain carries every GOARCH).
build:
	go build ./...
	go vet ./...
	GOARCH=arm64 go vet ./...
	GOARCH=386 go build ./...

# The second pass repeats the host duplex pool's liveness tests (slow and
# sleeping handlers at 16 credits, out-of-order completion) on one CPU, where
# a credit-protocol deadlock shows up as a "stalled" failure. The third
# repeats the stack's heartbeat-independence test on one CPU (every case
# runs the one DPU poller per connection), where a lost poller kick shows up
# as a stall. The fourth repeats the xRPC response
# writer's, handler-dispatch and deadline tests on one CPU, where a lost
# writer wake-up shows up as a hang. The fifth repeats the offloaded stack's
# background-handler test on one CPU, where the duplex worker can pick the
# slow call up only after every fast one is answered.
test: fmt-check
	go vet ./...
	go test ./...
	GOMAXPROCS=1 go test -count=20 -run 'Duplex|Background|PollerClose' ./internal/rpcrdma
	GOMAXPROCS=1 go test -count=20 -run 'TestLivenessDoesNotDependOnHeartbeat' .
	GOMAXPROCS=1 go test -count=20 -run 'Writer|Park|Deadline' ./internal/xrpc ./internal/offload
	GOMAXPROCS=1 go test -count=20 -run 'Background' ./internal/offload
	@echo "advisory: quick benchmark comparison against the checked-in snapshots"
	@$(MAKE) --no-print-directory bench-check BENCHTIME=20000x \
		|| echo "bench-check: regressions above are ADVISORY here; run 'make bench-check' for a full-length pass"

# Fail on unformatted files (gofmt prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$out"; exit 1; fi

# Race-detector pass over the concurrent packages: the DPU pollers and the
# xRPC goroutines that scan for them, the host duplex pool, the protocol
# layer they reserve/commit into, the xRPC transport that feeds them, the
# generated-bindings byte-identity tests,
# the decoder's pooled scan scratch, the datapath span recorder, and the
# fault-injection layers (per-QP delay lines, injector, link staller), plus
# the windowed-metrics shard rotation and the gauge sampler, and the
# experiment harness that drives whole deployments. The second pass
# repeats the poller-wake tests three times: the CQ kick (lost-wake-up
# stress), the block free lists, and the stack-level liveness and idle tests,
# whose packages are the root package, internal/rdma and internal/rpcrdma.
# The third repeats the xRPC front end's buffer-ownership tests: pooled
# request frames, response-buffer release on every path (poisoned on
# release), the reusable handler goroutines, the batched response writer and
# its write deadline, and the DPU handler that does not park.
race:
	go test -race ./internal/offload/... ./internal/rpcrdma/... ./internal/xrpc/... ./internal/gentest/... ./internal/trace/... ./internal/rdma/... ./internal/fault/... ./internal/fabric/... ./internal/metrics/... ./internal/rpccache/... ./internal/workload/... ./internal/deser/... ./internal/harness/...
	go test -race -count=3 -run 'Kick|Wait|Liveness|IdleStack|Recycled|SteadyState' . ./internal/rdma ./internal/rpcrdma
	go test -race -count=3 -run 'Frame|Release|Worker|Poison|Writer|Park' ./internal/xrpc ./internal/offload .

# Aggregate coverage over every package, with a summary and an HTML-ready
# profile at cover.out.
cover:
	go test -coverprofile=cover.out -covermode=atomic ./...
	go tool cover -func=cover.out | tail -1

# Decode-path benchmark snapshot: the deser + wire benchmarks (planned vs
# interpretive decode, varint/tag micro-benchmarks) parsed into
# BENCH_deser.json, plus the commit-coalescing echo round trip parsed into
# BENCH_batch.json (ns/op, B/op, allocs/op). Both files are checked in.
# The Payload* scatter-gather benchmarks have their own snapshot (see
# bench-payload below), so the deser selector names its families explicitly.
# BENCH_telemetry.json snapshots the observability hot paths: the windowed
# counter/histogram observe costs and the trace begin/span/finish cycle,
# each with its disabled (nil-receiver) fast path. The disabled paths are
# sub-nanosecond, so bench-check compares them at a loose 50% tolerance —
# the hard gates are the AllocsPerRun==0 pins in the tests themselves.
DESER_BENCH = ^Benchmark(Deserialize|Serialize|Sized|Planned|Varint|Uvarint|Tag)
bench:
	go test -bench '$(DESER_BENCH)' -benchmem -count 1 -run '^$$' ./internal/deser ./internal/wire \
		| go run ./cmd/benchjson -out BENCH_deser.json
	go test -bench 'EchoBatch|EchoRoundTrip' -benchmem -count 1 -run '^$$' ./internal/rpcrdma \
		| go run ./cmd/benchjson -out BENCH_batch.json
	go test -bench 'WindowedMetrics|TraceOverhead' -benchmem -count 1 -run '^$$' ./internal/metrics ./internal/trace \
		| go run ./cmd/benchjson -out BENCH_telemetry.json
	go test -bench 'ConnScale' -benchmem -count 1 -run '^$$' ./internal/harness \
		| go run ./cmd/benchjson -out BENCH_connscale.json

# Scatter-gather payload snapshot: copy-fill vs SG-fill vs segment placement
# at 4KiB..1MiB payloads, parsed into BENCH_payload.json (checked in).
bench-payload:
	go test -bench 'Payload' -benchmem -count 1 -run '^$$' ./internal/deser \
		| go run ./cmd/benchjson -out BENCH_payload.json

# Response-cache snapshot: the zero-alloc hit probe and the zipf-driven
# steady-state hit rate (a custom hit_rate metric), parsed into
# BENCH_cache.json (checked in). bench-check gates the hit rate at its own
# ±5% tolerance via -metric-tolerance, independent of the ns/op tolerance.
bench-cache:
	go test -bench 'BenchmarkCache' -benchmem -count 1 -run '^$$' ./internal/rpccache \
		| go run ./cmd/benchjson -out BENCH_cache.json

# Compare a fresh benchmark run against the checked-in snapshots; fails on
# >10% ns/op regressions. BENCHTIME shortens the pass (e.g. make bench-check
# BENCHTIME=20000x) at the price of noisier numbers.
BENCHTIME ?= 1s
bench-check:
	go test -bench '$(DESER_BENCH)' -benchmem -count 1 -benchtime $(BENCHTIME) -run '^$$' ./internal/deser ./internal/wire \
		| go run ./cmd/benchjson -compare BENCH_deser.json
	go test -bench 'EchoBatch|EchoRoundTrip' -benchmem -count 1 -benchtime $(BENCHTIME) -run '^$$' ./internal/rpcrdma \
		| go run ./cmd/benchjson -compare BENCH_batch.json
	go test -bench 'Payload' -benchmem -count 1 -benchtime $(BENCHTIME) -run '^$$' ./internal/deser \
		| go run ./cmd/benchjson -compare BENCH_payload.json
	go test -bench 'WindowedMetrics|TraceOverhead' -benchmem -count 1 -benchtime $(BENCHTIME) -run '^$$' ./internal/metrics ./internal/trace \
		| go run ./cmd/benchjson -compare BENCH_telemetry.json -tolerance 0.5
	go test -bench 'ConnScale' -benchmem -count 1 -benchtime $(BENCHTIME) -run '^$$' ./internal/harness \
		| go run ./cmd/benchjson -compare BENCH_connscale.json -tolerance 0.5
	go test -bench 'BenchmarkCache' -benchmem -count 1 -benchtime $(BENCHTIME) -run '^$$' ./internal/rpccache \
		| go run ./cmd/benchjson -compare BENCH_cache.json -tolerance 0.5 -metric-tolerance hit_rate=0.05

# The end-to-end ledger (bench/README.md): four workloads through the real
# xRPC front end, gated metrics as one JSON line per workload on stdout, then
# the benchmark module's own smoke test. bench-e2e-trace is the traced
# per-layer run with the budget table (rtt_p50_us = xrpc.echo + deser.scan +
# deser.fill + rpcrdma.echo + offload.self + residual.wakeup).
bench-e2e:
	bash bench/run.sh
	(cd bench && go test ./...)

bench-e2e-trace:
	bash bench/run.sh --trace 1

# Full benchmark sweep across every package (nothing written).
bench-all:
	go test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper's evaluation.
experiments:
	go run ./cmd/dpurpc-bench -experiment all

# Fault-injection sweep: goodput and latency of the offloaded stack at
# 0/1/5/10% injected fault rates, plus the race-detector chaos soak over
# randomized fault plans and the connection-churn soak (faults x kills,
# exactly-once at every rate). The deterministic-seed fault matrix runs in
# the ordinary `make test` (TestDeterministicFaultMatrix, TestChaosSoak).
chaos:
	go test -race -run 'TestChaosSoak|TestDeterministicFaultMatrix|TestRunChaos|TestChaosChurn' -count=1 -v \
		./internal/offload ./internal/rpcrdma ./internal/harness
	go run ./cmd/dpurpc-bench -experiment chaos

# Short fuzz pass over the untrusted-input surfaces. FuzzPlannedDecode fuzzes
# the decoder production runs (Scan + Fill) against the interpretive one and
# protomsg; FuzzPackedVarints fuzzes the packed-varint kernel against the
# portable loop and a wire.Uvarint loop. Their corpora and FuzzServeConn's
# are checked in (internal/{deser,xrpc}/testdata/fuzz), so their seeds also
# run in `go test`.
fuzz:
	go test -fuzz FuzzPlannedDecode -fuzztime 30s ./internal/deser
	go test -fuzz FuzzPackedVarints -fuzztime 30s ./internal/deser
	go test -fuzz FuzzDeserialize -fuzztime 30s ./internal/deser
	go test -fuzz FuzzParse -fuzztime 30s ./internal/protodsl
	go test -fuzz FuzzDecode -fuzztime 30s ./internal/adt
	go test -fuzz FuzzServeConn -fuzztime 30s ./internal/xrpc

clean:
	go clean ./...
	rm -f cover.out

# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test fmt-check race cover bench-all bench-e2e bench-e2e-trace experiments chaos fuzz clean

all: build test

# The cross-builds keep the portable packed-varint loop and the _amd64 file
# split compiling (both offline: the toolchain carries every GOARCH). The
# end-to-end ledger in bench/ is its own module, so `go build ./...` never
# compiles it; the last step catches a rename that would break it.
build:
	go build ./...
	go vet ./...
	GOARCH=arm64 go vet ./...
	GOARCH=386 go build ./...
	cd bench && go vet ./...

# The second pass repeats the host duplex pool's liveness tests (slow and
# sleeping handlers at 16 credits, out-of-order completion) on one CPU, where
# a credit-protocol deadlock shows up as a "stalled" failure. The third
# repeats the stack's heartbeat-independence test on one CPU (every case
# runs the one DPU poller per connection), where a lost poller kick shows up
# as a stall. The fourth repeats the xRPC response
# writer's, handler-dispatch and deadline tests on one CPU, where a lost
# writer wake-up shows up as a hang. The fifth repeats the offloaded stack's
# background-handler test on one CPU, where the duplex worker can pick the
# slow call up only after every fast one is answered. The sixth repeats the
# allocation pins on one CPU, where the duplex worker and the poller share
# sync.Pool's per-P caches.
test: fmt-check
	go vet ./...
	go test ./...
	GOMAXPROCS=1 go test -count=20 -run 'Duplex|Background|PollerClose' ./internal/rpcrdma
	GOMAXPROCS=1 go test -count=20 -run 'TestLivenessDoesNotDependOnHeartbeat' .
	GOMAXPROCS=1 go test -count=20 -run 'Writer|Park|Deadline' ./internal/xrpc ./internal/offload
	GOMAXPROCS=1 go test -count=20 -run 'Background' ./internal/offload
	GOMAXPROCS=1 go test -count=5 -run DoesNotAllocate ./internal/offload ./internal/protomsg

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
# harness's Fig. 8 and connscale runs, which drive whole deployments. The
# second pass repeats the poller-wake tests three times: the CQ kick (lost-wake-up
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

# Fault-injection soaks under the race detector: the chaos soak over seeded
# fault plans (every call resolves OK or typed, every break dumps its flight
# recorder), the deterministic-seed fault matrix, and the connection-churn
# soak (faults x kills at 0/1/5/10%, exactly-once at every rate). All three
# also run in the ordinary `make test`, without -race; a live run's failure
# counters are the conn_*_total series on /metrics.
chaos:
	go test -race -run 'TestChaosSoak|TestDeterministicFaultMatrix|TestChaosChurn' -count=1 -v \
		./internal/offload ./internal/rpcrdma ./internal/harness

# Short fuzz pass over the untrusted-input surfaces. FuzzPlannedDecode fuzzes
# the decoder production runs (Scan + Fill) against the interpretive one and
# protomsg; FuzzPackedVarints fuzzes the packed-varint kernel against the
# portable loop and a wire.Uvarint loop. FuzzBlockWalk feeds arbitrary bytes
# to rpcrdma's one inbound block walker in both directions. Their corpora and
# FuzzServeConn's are checked in (internal/{deser,xrpc,rpcrdma}/testdata/fuzz),
# so their seeds also run in `go test`.
fuzz:
	go test -fuzz FuzzPlannedDecode -fuzztime 30s ./internal/deser
	go test -fuzz FuzzPackedVarints -fuzztime 30s ./internal/deser
	go test -fuzz FuzzDeserialize -fuzztime 30s ./internal/deser
	go test -fuzz FuzzParse -fuzztime 30s ./internal/protodsl
	go test -fuzz FuzzDecode -fuzztime 30s ./internal/adt
	go test -fuzz FuzzServeConn -fuzztime 30s ./internal/xrpc
	go test -fuzz FuzzBlockWalk -fuzztime 30s ./internal/rpcrdma

clean:
	go clean ./...
	rm -f cover.out

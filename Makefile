GO ?= go

.PHONY: build test race vet bench bench-quick fuzz fmt-check ci test-nommsg test-debug test-rpcbench test-single-p

# The portable per-packet UDP engine, forced on Linux via the nommsg
# build tag (CI runs this so the fallback cannot rot).
test-nommsg:
	$(GO) test -tags=nommsg ./...

# The real-transport packages with one P: the dispatch loop must not
# starve the netpoll-driven transport reader goroutines.
test-single-p:
	GOMAXPROCS=1 $(GO) test -count=1 ./erpc/ ./internal/core/ ./internal/transport/

# rpcbench is a nested module, so the root `go test ./...` skips it;
# its smoke test runs the benchmark end to end on every workload.
test-rpcbench:
	cd rpcbench && $(GO) test ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet runs the standard vet checks plus erpcvet, the in-tree analyzer
# suite that enforces the zero-copy ownership invariants (framerelease,
# aliasflush, owner, syscallptr — see internal/analysis/).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/erpcvet ./...

# test-debug runs the whole suite with the erpcdebug runtime sanitizer
# compiled in (double-put / foreign-put / SegBuf-refcount assertions in
# the transport pools) under the race detector — the CI sanitizer leg.
test-debug:
	$(GO) test -tags erpcdebug -race ./...

# bench regenerates the recorded benchmark artifacts: BENCH_datapath.json
# (the burst-datapath multicore sweep: simulated Mrps, wall seconds and
# allocs/op per endpoint count; the pre-refactor baseline section is
# preserved), BENCH_reuseport.json (the sharded-datapath sweep:
# per-port vs SO_REUSEPORT socket layouts with per-shard counters and
# the single-owner pool probe), BENCH_gso.json (the UDP engine sweep:
# per-packet vs the UDP_SEGMENT/UDP_GRO gso engine, loopback RPC krps,
# syscalls/op, segments/syscall, zero-copy TX accounting, TX blast)
# and BENCH_chaos.json
# (the fault-tolerance chaos sweep: loss storm / blackhole / straggler
# / dup burst / overload / graceful drain, per-phase goodput, recovery
# time, budget counters and the at-most-once audit — full scale so the
# retransmit and reject budgets exhaust inside the fault windows),
# then runs the full reduced-scale benchmark suite once.
bench:
	$(GO) run ./cmd/erpc-bench -datapath BENCH_datapath.json -scale 0.25
	$(GO) run ./cmd/erpc-bench -reuseport BENCH_reuseport.json -scale 0.5
	$(GO) run ./cmd/erpc-bench -gso BENCH_gso.json -scale 0.5
	$(GO) run ./cmd/erpc-bench -chaos BENCH_chaos.json
	$(GO) test -bench . -benchtime 1x -run XXX .

bench-quick:
	$(GO) test -bench . -benchtime 1x -run XXX .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Short native-fuzzing session on the packet parsers and the burst RX
# path; the seed corpora also run as plain tests in `make test`.
fuzz:
	$(GO) test -fuzz FuzzParseHeader -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzPktMath -fuzztime 15s ./internal/wire/
	$(GO) test -fuzz FuzzProcessPkt -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzRxBurst -fuzztime 30s ./internal/core/

ci: fmt-check build vet race test-debug test-nommsg test-single-p test-rpcbench

# Developer workflow for the iwscan reproduction. `make check` is the
# pre-commit gate (see README.md): formatting, vet, full build, full
# test suite, a race-detector pass over the packages with concurrency,
# and the benchmark smoke. Every end-to-end gate is a `go test`: the
# CLI scans (flight records, telemetry stream, smart rescan) are
# cmd/iwscan's tests, the oracle accuracy floor and both golden
# populations are internal/validate's.

GO ?= go

# Where artifacts (sweep report and CSV, coverage profile, benchmark
# report) land; CI uploads this directory.
VALIDATE_OUT ?= artifacts

# Per-target budget for fuzz-smoke.
FUZZ_TIME ?= 3s
# Packages with native fuzz targets (Fuzz* functions).
FUZZ_PKGS := ./internal/wire ./internal/output ./internal/httpsim ./internal/tlssim ./internal/prefixtree ./internal/flight

# Coverage floor for the non-blocking report `make cover` prints; the
# build does not fail below it, the number is for trend-watching.
COVER_TARGET ?= 70

.PHONY: check fmt vet build test race cover bench bench-compare bench-smoke fuzz-smoke validate-sweep

check: fmt vet build test race bench-smoke

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The scanner fans out over shards, the output pipeline runs async
# sinks, and experiments drives both end to end — all under -race along
# with the shared metrics registry, the core estimator, and the packet
# paths (each netsim.Network now owns its packet/event free lists, so
# the race pass guards the remaining cross-shard surfaces: the k-way
# merge, the timeseries store, the debug server, and the jobs
# scheduler; the experiments stress tests hammer them with concurrent
# parallel scans, checkpoint interrupts, and live scrapes). httpsim and
# tlssim are here for their response memos: a Server's memos are
# rendered on demand, written whenever a connection sends past what they
# hold, and unsynchronised by contract (one Server, one Host, one
# Network, one goroutine); their tests send from one Server across
# connections, so a second writer would show up as a race. inet is here
# because every shard's simulator materialises its hosts from one
# shared Universe, which must stay read-only.
race:
	$(GO) test -race ./internal/metrics/... ./internal/core/... \
		./internal/scanner/... ./internal/output/... ./internal/experiments/... \
		./internal/netsim/... ./internal/tcpstack/... ./internal/flight/... \
		./internal/timeseries/... ./internal/jobs/... ./internal/events/... \
		./internal/httpsim/... ./internal/tlssim/... ./internal/inet/...

# cover writes one aggregate coverage profile across every package to
# $(VALIDATE_OUT)/cover.out (CI uploads it) plus an HTML render, and
# prints the total against $(COVER_TARGET)%. The threshold is a report,
# not a gate: the line is marked LOW when under target but the target
# never fails, so coverage drift is visible without blocking merges.
cover:
	@mkdir -p $(VALIDATE_OUT)
	$(GO) test -count=1 -coverprofile=$(VALIDATE_OUT)/cover.out -coverpkg=./... ./...
	@$(GO) tool cover -html=$(VALIDATE_OUT)/cover.out -o $(VALIDATE_OUT)/cover.html
	@total=$$($(GO) tool cover -func=$(VALIDATE_OUT)/cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	status=ok; awk "BEGIN{exit !($$total < $(COVER_TARGET))}" && status="LOW (target $(COVER_TARGET)%)"; \
	echo "coverage: $$total% total — $$status ($(VALIDATE_OUT)/cover.out, cover.html)"

# bench runs the repo's one benchmark (bench/, see bench/README.md and
# BENCHMARK.json): five workloads at the default --seed 9 --seconds 15
# --trace 0, report written to $(VALIDATE_OUT)/BENCH_bench.json for CI
# to upload. It exits non-zero only on the benchmark's own correctness
# gates (byte identity, oracle, smart-rescan floors), never on timing.
bench:
	@mkdir -p $(VALIDATE_OUT)
	bash bench/run.sh -out $(VALIDATE_OUT)/BENCH_bench.json

# bench-compare holds the report `make bench` just wrote against the
# checked-in BENCH_bench.json using the bounds in BENCHMARK.json,
# without measuring again. Wall-time deltas between hosts are advisory
# (CI runs this non-blocking); allocs_per_probe, heap_bytes_per_probe
# and oracle_exact_ratio repeat for a seed, so a delta there is real.
# The comparison does not read iwb1_sha256: diff those by eye (grep).
bench-compare:
	bash bench/run.sh -compare BENCH_bench.json $(VALIDATE_OUT)/BENCH_bench.json

# bench-smoke guards that every benchmark still builds, runs and passes
# its gates, without measuring anything: each `go test` benchmark for
# one iteration, bench/'s own tests, and the benchmark at smoke size
# both untraced and traced — the traced pass must reproduce the
# untraced bytes, which is what catches bench/scan.go's copy of
# RunScanChecked drifting from the original.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...
	cd bench && $(GO) test ./...
	bash bench/run.sh -quick
	bash bench/run.sh -quick --trace 1

# fuzz-smoke runs every native fuzz target briefly ($(FUZZ_TIME) each):
# the wire decoders, the IWB1 and pcap readers, and the HTTP/TLS parsers.
# `go test -fuzz` takes one target at a time, hence the loop.
fuzz-smoke:
	@set -e; for pkg in $(FUZZ_PKGS); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "==> fuzz $$pkg $$target ($(FUZZ_TIME))"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZ_TIME); \
		done; \
	done

# validate-sweep produces the accuracy-vs-adversity curve artifact
# (full default grid; slower than the test suite, CI-only by default).
validate-sweep:
	@mkdir -p $(VALIDATE_OUT)
	$(GO) run ./cmd/iwvalidate -mode sweep -sample 0.01 \
		-out $(VALIDATE_OUT)/sweep.txt -csv $(VALIDATE_OUT)/sweep.csv
	@cat $(VALIDATE_OUT)/sweep.txt

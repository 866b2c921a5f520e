# Development targets. `make verify` is the pre-merge gate: vet, build,
# the full test suite, and the race detector over every package.

GO ?= go

.PHONY: build test vet lint race race-hot verify fuzz-smoke obs-smoke watch-smoke bench-smoke bench bench-concurrency bench-snmp bench-json bench-serve bench-shed bench-scale bench-fed bench-baseline bench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# remoslint: the Remos invariant analyzers — clock injection (wallclock),
# seeded determinism (globalrand), error taxonomy (errwrap), metric
# naming (metricname), goroutine hygiene (goctx), and the concurrency
# discipline (lockorder, lockheld, pubimmutable). Exit 1 on findings OR
# when total analysis time exceeds lint.TimeBudget, so the suite can
# never quietly grow too slow for CI; `go run ./cmd/remoslint -json`
# emits machine-readable diagnostics with per-check wall time.
lint:
	$(GO) run ./cmd/remoslint ./...

race:
	$(GO) test -race ./...

# The race detector focused on the concurrency-heavy packages the
# lockorder/lockheld analyzers police — the fast inner loop while
# working on locking code (full-tree `make race` stays the merge gate).
race-hot:
	$(GO) test -race ./internal/proto/ ./internal/collector/qcache/ \
		./internal/watch/ ./internal/obs/ ./internal/admission/ \
		./internal/snapshot/ ./internal/federation/ ./internal/directory/ \
		./internal/topology/

verify: vet lint build test race

# Shake each fuzz target for 10s so the targets (and their seed corpora)
# can't bit-rot; CI runs this on every push.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecodeMessage -fuzztime 10s ./internal/snmp/
	$(GO) test -run xxx -fuzz FuzzServeCommands -fuzztime 10s ./internal/directory/
	$(GO) test -run xxx -fuzz FuzzASCIIConn -fuzztime 10s ./internal/proto/
	$(GO) test -run xxx -fuzz FuzzXMLRequest -fuzztime 10s ./internal/proto/
	$(GO) test -run xxx -fuzz FuzzXMLFlowsReply -fuzztime 10s ./internal/proto/

# Boots remosd and asserts the observability plane (/metrics, /healthz,
# /debug/queries) reports a real query end to end.
obs-smoke:
	sh scripts/obs_smoke.sh

# Boots remosd with the continuous-collection plane on, subscribes over
# both wire protocols (ASCII WATCH and HTTP/SSE), and asserts pushed
# UPDATEs arrive and the sched/watch gauges are exported.
watch-smoke:
	sh scripts/watch_smoke.sh

# The benchmark harness under bench/ is a module of its own (it builds
# from its checkout, see bench/run.sh) that imports internal/ packages,
# and `go build ./... && go test ./...` at the root does not descend into
# it: this builds it and runs its tests against the tree as it stands, so
# an internal API change that breaks the harness shows here, not at the
# next benchmark run.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Every benchmark in the tree, with allocation counts. A fixed iteration
# count (not -benchtime 1x, whose single iteration is all warm-up noise)
# keeps the sweep quick while producing usable numbers.
bench:
	$(GO) test -run xxx -bench . -benchtime 100x -benchmem ./...

# The contention exhibits: cold fan-out serial vs. parallel, the
# warm-query cache serial and hammered from many goroutines, watch-plane
# evaluation at 1k/10k subscribers with subscribe churn, and the metrics
# histograms. The -cpu matrix shows the scaling curve; widths past the
# core count oversubscribe, which is exactly where contended locks cliff.
bench-concurrency:
	$(GO) test -run xxx -bench 'MasterFanout|WarmQueryCache|WatchEvaluate|WatchSubscribeChurn|HistogramObserve' \
		-benchmem -cpu 1,4,8 ./

# The SNMP data-plane exhibits: device-batched polling vs. per-interface
# exchanges, and the BER codec with allocation counts. Results stream to
# BENCH_snmp.json (go test -json events) for tooling.
bench-snmp:
	$(GO) test -json -run xxx -bench 'PollBatchedVsSerial|BERCodec' -benchmem \
		./internal/collector/snmpcoll/ ./internal/snmp/ | tee BENCH_snmp.json

# Machine-readable evaluation-regeneration timings: one BENCH_<name>.json
# record per experiment (a small -maxn keeps it quick; drop the flag to
# time the paper-scale runs).
bench-json:
	$(GO) run ./cmd/remosbench -json -maxn 40 fig3

# The end-to-end serving benchmark: a full two-site stack (deployment,
# warm-query cache, watch plane, both wire protocols) under concurrent
# mixed cold/warm/watch traffic.
bench-serve:
	$(GO) run ./cmd/remosbench -json serve

# The large-topology scale benchmark: a ~10k-node two-tier fabric
# applied to the snapshot store once, then hammered with flow queries
# that must never fall back to a collector walk (the rig's collector
# fails loudly on any miss).
bench-scale:
	$(GO) run ./cmd/remosbench -json scale

# The load-shedding benchmark: well-behaved interactive tenants measured
# with and without a fleet of misbehaving batch clients hammering far
# over their token budget. Fails structurally if any misbehaving request
# ends in anything but admission or a typed retry-hinted shed.
bench-shed:
	$(GO) run ./cmd/remosbench -json shed

# The federation benchmark: a multi-domain collector mesh over real
# sockets under mixed intra/cross-domain flow queries, with domain 0's
# primary master killed mid-run. Fails structurally if any sampled
# answer diverges from a single-master walk, any client error is
# untyped, or the standby never takes over via lease expiry.
bench-fed:
	$(GO) run ./cmd/remosbench -json fed

# Refresh the committed baselines deliberately — run on a quiet machine
# and commit the new records together with the change that moved them.
bench-baseline:
	$(GO) run ./cmd/remosbench -json -maxn 40 fig3
	$(GO) run ./cmd/remosbench -json serve
	$(GO) run ./cmd/remosbench -json shed
	$(GO) run ./cmd/remosbench -json scale
	$(GO) run ./cmd/remosbench -json fed

# The benchmark regression gate: regenerate both records into .benchfresh/
# and compare against the committed baselines. BENCH_SLACK widens the
# thresholds for noisy machines (CI uses 3); even at maximum slack a 2x
# slowdown fails.
BENCH_SLACK ?= 2
bench-check:
	@mkdir -p .benchfresh
	$(GO) run ./cmd/remosbench -json -outdir .benchfresh -maxn 40 fig3
	$(GO) run ./cmd/remosbench -json -outdir .benchfresh serve
	$(GO) run ./cmd/remosbench -json -outdir .benchfresh shed
	$(GO) run ./cmd/remosbench -json -outdir .benchfresh scale
	$(GO) run ./cmd/remosbench -json -outdir .benchfresh fed
	$(GO) run ./scripts/bench_compare.go -slack $(BENCH_SLACK) BENCH_fig3.json .benchfresh/BENCH_fig3.json
	$(GO) run ./scripts/bench_compare.go -slack $(BENCH_SLACK) BENCH_serve.json .benchfresh/BENCH_serve.json
	$(GO) run ./scripts/bench_compare.go -slack $(BENCH_SLACK) BENCH_shed.json .benchfresh/BENCH_shed.json
	$(GO) run ./scripts/bench_compare.go -slack $(BENCH_SLACK) BENCH_scale.json .benchfresh/BENCH_scale.json
	$(GO) run ./scripts/bench_compare.go -slack $(BENCH_SLACK) BENCH_fed.json .benchfresh/BENCH_fed.json

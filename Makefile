# Development targets. `make verify` is the pre-merge gate: vet, build,
# the full test suite, and the race detector over every package.

GO ?= go

.PHONY: build test vet lint race race-hot verify property-soak fuzz-smoke obs-smoke watch-smoke bench-smoke bench-aa bench bench-concurrency bench-snmp bench-flows

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# remoslint: the Remos invariant analyzers — clock injection (wallclock),
# seeded determinism (globalrand), error taxonomy (errwrap), goroutine
# hygiene (goctx), pooled-buffer balance (poolreturn), and the lock
# discipline read off the code (lockorder: no cycle in the observed lock
# order; lockheld: nothing blocks under a held mutex, module-wide). Exit
# 1 on findings; `go run ./cmd/remoslint -allows` lists the live allow
# directives.
lint:
	$(GO) run ./cmd/remoslint ./...

race:
	$(GO) test -race ./...

# The race detector focused on the concurrency-heavy packages: the
# serving planes (proto, qcache, watch, obs, admission, snapshot,
# federation, directory, topology), conc and benchcoll (the listener
# and its one user outside the serving planes), collector (the shared
# streaming Predictor parallel polls feed), modeler (whose queries
# run beside the snapshot writer and read the stamp vector the next
# generation is copied from), the cold path's four — snmp (the agent's
# and the client's pooled scratch), mib (the device layout published per
# topology epoch, walked beside a relayout), snmpcoll (parallel device
# walks and polls over both) and bridgecoll (the numbered bridge tree,
# replaced by every re-walk while path queries read it) — the root package, whose end-to-end tests
# drive those planes concurrently over the wire (load shedding, mixed
# serving beside the watch plane), and remosd (a closed daemon leaves no
# goroutine or descriptor behind) — the fast inner loop while working on
# locking code (full-tree `make race` stays the merge gate). The
# publish-through-atomic.Pointer sites have no analyzer: the
# reader-beside-writer tests in these packages are their guard. CI's
# race-hot matrix (.github/workflows/verify.yml) has one cell per
# package here; TestRaceHotListsMatch (internal/lint) fails if the two
# lists differ.
race-hot:
	$(GO) test -race ./internal/proto/ ./internal/collector/qcache/ \
		./internal/watch/ ./internal/obs/ ./internal/admission/ \
		./internal/snapshot/ ./internal/federation/ ./internal/directory/ \
		./internal/topology/ ./internal/modeler/ ./internal/conc/ \
		./internal/collector/ ./internal/collector/benchcoll/ \
		./internal/collector/master/ ./internal/snmp/ ./internal/mib/ \
		./internal/collector/snmpcoll/ ./internal/collector/bridgecoll/ \
		. ./remosd/

verify: vet lint build test race

# The random-fabric properties and cross-path gates at scale: every
# netsim.RandomFabric gate in netsim (routing, conservation, link limits,
# partition stitching, family coverage), federation (stitched FLOWS
# and QUERY against the single master), proto (the graph a remote
# QUERY's ASCII and XML clients decode against the one served),
# snmpcoll (router views against the emulator, the numbered discovery
# against the pairwise walk) and topology (a graph built five ways and
# cloned answering every lookup alike, and Update against a pair-table
# reference over random polls) draws 20× its tier-1 seed count through
# testing/quick's standard -quickchecks flag, on the same fixed seed list.
property-soak:
	$(GO) test -count=1 ./internal/netsim/ ./internal/federation/ ./internal/proto/ \
		./internal/collector/snmpcoll/ ./internal/topology/ -quickchecks=2000

# Shake each fuzz target for 10s so the targets (and their seed corpora)
# can't bit-rot; CI runs this on every push. The list is every func Fuzz*
# in the module: TestFuzzSmokeListsEveryTarget (internal/lint) fails if a
# target is missing from it.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecodeMessage -fuzztime 10s ./internal/snmp/
	$(GO) test -run xxx -fuzz FuzzAgentHandleBytes -fuzztime 10s ./internal/snmp/
	$(GO) test -run xxx -fuzz FuzzServeCommands -fuzztime 10s ./internal/directory/
	$(GO) test -run xxx -fuzz FuzzReplicationMessages -fuzztime 10s ./internal/directory/
	$(GO) test -run xxx -fuzz FuzzDecodeText -fuzztime 10s ./internal/topology/
	$(GO) test -run xxx -fuzz FuzzASCIIConn -fuzztime 10s ./internal/proto/
	$(GO) test -run xxx -fuzz FuzzXMLRequest -fuzztime 10s ./internal/proto/
	$(GO) test -run xxx -fuzz FuzzXMLFlowsReply -fuzztime 10s ./internal/proto/
	$(GO) test -run xxx -fuzz FuzzReadResult -fuzztime 10s ./internal/proto/
	$(GO) test -run xxx -fuzz FuzzReadFlowsResult -fuzztime 10s ./internal/proto/
	$(GO) test -run xxx -fuzz FuzzWireAddr -fuzztime 10s ./internal/proto/
	$(GO) test -run xxx -fuzz FuzzSSEEvents -fuzztime 10s ./internal/proto/
	$(GO) test -run xxx -fuzz FuzzDecodeHTTPError -fuzztime 10s ./internal/proto/
	$(GO) test -run xxx -fuzz FuzzWatchLines -fuzztime 10s ./internal/proto/
	$(GO) test -run xxx -fuzz FuzzLines -fuzztime 10s ./internal/lines/

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

# The performance gate: every bench/ workload twice from one binary.
# Exits 1 when an answer fails the oracle, or when two runs of the same
# code differ on an end-to-end metric by more than its BENCHMARK.json
# bound — a machine on which the numbers cannot carry a claim.
bench-aa:
	cd bench && $(GO) run . -aa 2

# Every benchmark in the tree, with allocation counts. A fixed iteration
# count (not -benchtime 1x, whose single iteration is all warm-up noise)
# keeps the sweep quick while producing usable numbers.
bench:
	$(GO) test -run xxx -bench . -benchtime 100x -benchmem ./...

# The contention exhibits: cold fan-out serial vs. parallel, watch-plane
# evaluation at 1k/10k subscribers with subscribe churn, the metrics
# histograms, and the warm-query cache hammered from many goroutines
# (qcache's own benchmark). The -cpu matrix shows the scaling curve;
# widths past the core count oversubscribe, which is exactly where
# contended locks cliff.
bench-concurrency:
	$(GO) test -run xxx -bench 'MasterFanout|WatchEvaluate|WatchSubscribeChurn|HistogramObserve|WarmHitParallel' \
		-benchmem -cpu 1,4,8 ./ ./internal/collector/qcache/

# The cold-path exhibits: device-batched polling vs. per-interface
# exchanges, the BER codec, one whole exchange against a device layout (a
# baseline read's 2-varbind Get, the poller's 24-varbind Get and a 7-column
# walk step), a GetNext walk of it and the per-epoch build of a router's
# and an edge switch's layout, the ASCII graph codec on a cold reply graph, one 32-host query on
# the 256-host campus collected cold (every cache dropped) and warm,
# the Bridge Collector's level-2 path of every in-wing host pair of that
# campus, and the client's read of an ASCII result (ColdGraph: a cold
# reply's graph off the reader, as it arrives on the wire), all with
# allocation counts. CI runs it with a short fixed BENCH_SNMP_TIME so
# the cold-path pins cannot rot unbuilt.
BENCH_SNMP_TIME ?= 1s
bench-snmp:
	$(GO) test -run xxx -bench 'PollBatchedVsSerial|BERCodec|AgentExchange|DeviceViewNext|DeviceViewBuild|GraphTextCodec|CampusCollect|CampusL2Paths|ASCIIResultRoundTrip' -benchmem \
		-benchtime $(BENCH_SNMP_TIME) ./internal/collector/snmpcoll/ ./internal/collector/bridgecoll/ ./internal/snmp/ ./internal/mib/ ./internal/topology/ ./internal/proto/

# The snapshot-backed flow query: the Modeler's 8-flow queries over one
# generation of the 10 204-node two-tier fabric (what bench/'s
# scale_static runs), the path index asked in text and by address,
# max-min alone on a reused Allocator as the path index calls it, and
# the store beside them — the freshness check of a query's 11 hosts and
# one Apply of the fabric's 10 000, onto the same shape and onto another
# (what scale_churn's writer does). The pin for this path's layout,
# hashing and allocations outside the contract run; CI runs it with a
# short fixed BENCH_FLOWS_TIME so the pins cannot rot unbuilt.
BENCH_FLOWS_TIME ?= 1s
bench-flows:
	$(GO) test -run xxx -bench 'SnapshotFlows|PathIndexFlowAlloc|Allocate64Flows|StoreApply|StoreFresh' -benchmem \
		-benchtime $(BENCH_FLOWS_TIME) ./internal/modeler/ ./internal/topology/ ./internal/maxmin/ ./internal/snapshot/

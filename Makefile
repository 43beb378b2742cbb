# Make targets mirror the CI jobs (.github/workflows/ci.yml) exactly, so a
# local `make ci` reproduces what the gate runs.

GO ?= go

# COVER_FLOOR is the minimum total statement coverage `make cover` accepts,
# in percent. Recorded at 78.0 when the floor was introduced (measured
# total: 80.6%); raise it when coverage rises, never lower it to make a
# regression pass.
COVER_FLOOR = 78.0

# STATICCHECK_VERSION pins the staticcheck release CI installs; bump it
# deliberately (new releases add checks, which can fail the gate).
STATICCHECK_VERSION = 2025.1.1

# BENCH_EXPERIMENTS is every experiment whose BENCH_*.json artifact CI
# records; bench-all runs them in one invocation after `make bench` (which
# records BENCH_paper.json).
BENCH_EXPERIMENTS = durability,compaction,advisor,txn,server,repl,scenarios,hotpath

# PROFILE_DIR receives the pb.gz profiles `make profile` captures; CI
# uploads it as the profiles artifact.
PROFILE_DIR = profiles

.PHONY: build cross build-examples test race cover difftest fuzz bench bench-all bench-check bench-durability bench-compaction bench-advisor bench-txn bench-server bench-repl bench-scenarios bench-hotpath benchmark-smoke profile heap-profile loc fmt fmt-check vet staticcheck doc-check ci

build:
	$(GO) build ./...

# Cross-compile for two other Unix systems: the WAL writes through a shared
# file mapping, and this keeps it on the syscall API every Unix has (Mmap,
# Munmap, SYS_MSYNC; no Linux-only call such as Fallocate). Windows has no
# mmap, and the module does not build there.
cross:
	GOOS=darwin $(GO) build ./...
	GOOS=freebsd $(GO) build ./...

# Examples are package main and never imported, so build them explicitly:
# this is what keeps them from rotting against API changes.
build-examples:
	$(GO) build ./examples/...

test: build
	$(GO) test ./...

# The differential harness is excluded here: the `difftest` target runs it
# under -race at 5x the depth, so including it would only duplicate the
# slowest job's wall clock.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v hermit/internal/difftest)

# Coverage floor: run the full suite with -coverprofile and fail if total
# statement coverage drops below COVER_FLOOR. The profile is a temp file
# and is removed whether the gate passes or fails.
cover:
	@rm -f coverage.out
	@$(GO) test -coverprofile=coverage.out ./... || { rm -f coverage.out; exit 1; }
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	rm -f coverage.out; \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Differential fuzz harness at CI depth: every configuration x seed runs a
# 10k-operation stream against the map-model oracle, under the race
# detector.
difftest:
	$(GO) test -race -run TestDifferential ./internal/difftest -difftest.ops 10000

# Coverage-guided fuzzing for FUZZTIME each: the B+-tree's key order and
# unique-key path (Insert/Delete/Get/Swap/Scan over finite, ±0, ±Inf and NaN
# keys, with ids of every width, the ranks of such keys among them, against
# a map oracle) and its two-key trees (InsertAB/DeleteAB/ContainsAB/ScanAB/
# BulkLoadAB, both keys drawn from whole, quarter, ±0, ±Inf and NaN keys,
# against a multiset oracle), structural check after every op, then the
# bulk-load sort kernels (keyorder.SortPairs/SortTriples against a sort.Sort
# reference, NaN payloads, signed zeros, duplicates, sorted and reverse
# inputs), then the block tier's decoder (FuzzDecodeBlock: a block image as
# given and with every checksum recomputed, so the structure checks behind
# the checksums are reached — opened, iterated, point-read and
# re-encoded), then the paper's safety
# property (FuzzHermit: a Hermit index's candidates cover every matching
# row through inserts, deletes, host updates, reorganizations and writes
# parked in the side buffer, odd values and odd primary keys included,
# under both pointer schemes), then the one WAL replay path (FuzzReplay: a
# durable leader's seeded mix of auto-commit writes, transactions and DDL
# on plain and partitioned tables, odd keys and values included, ending in a torn
# transaction, replayed by reopening its directory and by ReplApply into
# an empty database in random batches that cut groups apart — the rows bit
# for bit and the open-group counts must agree), then the TRS-Tree fit's
# median selection (FuzzMedianOf: the branch-free selection against the
# quickselect it replaced, bit for bit, over duplicate-heavy, all-equal,
# sorted and reversed inputs, ±Inf, NaN payloads and ±0), then the TRS-Tree's
# outlier record (FuzzOutlierCode: a record coded from any value — ±Inf, ±0,
# NaN, subnormals, values a float32 cannot hold — in a leaf over any span,
# edge-extended or not, is returned by every query whose exact bounds hold
# the value, NaN by none, and its id reads back at every width and after
# the arena widens to 8 bytes), then the frame-of-reference codec the
# packed structures share (FuzzForCode: the tightest frame of a set of odd
# values — −0, NaN payloads, ±Inf, subnormals, whole numbers, wide
# exponents — with its base lowered by a slack, every value coded, stored,
# loaded and decoded back bit for bit, and the probe and the code interval
# of bounds on the grid, off it, below the base or past the mask against a
# brute force over the codes), then the row store (FuzzRowStore: runs of
# inserts that fill and pack blocks, rows of odd values — −0, NaN payloads
# of both signs, ±Inf, subnormals, whole numbers, eighths of both signs,
# wide exponents — deletes scattered and of whole blocks, and the refills
# that fit a packed block's frames or pack it anew, every read path against
# a map model bit for bit), then the serving tier's decoders (FuzzDecodeFrame, FuzzDecodeStream
# and FuzzDecodeReplFrame: arbitrary bytes as one frame, as a stream of
# frames and as replication frames — no panic, no read past a frame's
# declared extent, and a message decoded re-encodes to one that decodes
# back to it) and the WAL's replay of arbitrary bytes
# (FuzzReplayArbitraryBytes: no panic, no invalid record, and the file
# stays appendable). The seed corpus
# alone runs in every `go test`; new inputs land in the Go build cache's
# fuzz directory, a failing one under the package's testdata/fuzz. (A
# worker minimizing a new input reports 0 execs/sec.)
FUZZTIME = 20s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTreeTotalOrder -fuzztime $(FUZZTIME) ./internal/btree
	$(GO) test -run '^$$' -fuzz FuzzSortPairs -fuzztime $(FUZZTIME) ./internal/keyorder
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeBlock$$' -fuzztime $(FUZZTIME) ./internal/block
	$(GO) test -run '^$$' -fuzz FuzzHermit -fuzztime $(FUZZTIME) ./internal/hermit
	$(GO) test -run '^$$' -fuzz FuzzReplay -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzMedianOf -fuzztime $(FUZZTIME) ./internal/trstree
	$(GO) test -run '^$$' -fuzz FuzzOutlierCode -fuzztime $(FUZZTIME) ./internal/trstree
	$(GO) test -run '^$$' -fuzz FuzzForCode -fuzztime $(FUZZTIME) ./internal/forcode
	$(GO) test -run '^$$' -fuzz FuzzRowStore -fuzztime $(FUZZTIME) ./internal/storage
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME) ./internal/server/proto
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStream$$' -fuzztime $(FUZZTIME) ./internal/server/proto
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReplFrame$$' -fuzztime $(FUZZTIME) ./internal/server/proto
	$(GO) test -run '^$$' -fuzz FuzzReplayArbitraryBytes -fuzztime $(FUZZTIME) ./internal/wal

# Bench: every figure of the paper from one sweep (each dataset loaded
# once; about 40 s on 2 cores), recorded in BENCH_paper.json, whose counts
# `make bench-check` holds to the paper's shapes; then one build each of a
# B+-tree and a Hermit index over 1M Synthetic rows (time, allocations and
# the built index's bytes per row printed), so a regression of the
# construction path or of the footprint shows without the repository
# benchmark; then the B+-tree at the paper's node order and at the one
# every tree here runs at (btree.DefaultOrder) — random inserts, point
# lookups and 1000-entry range scans on 1M keys, with the tree's B/entry:
# the comparison the constant was chosen by — and random point lookups on
# a 1M-key primary index (BenchmarkGetRandom1M), and scans of a bulk-loaded
# 1M-entry two-key tree whose b filter keeps a tenth of each a range
# (BenchmarkCompositeScan), each for a million operations, enough for a
# mean that means something; then a million
# TRS-Tree lookups in the shape durable-write's tree ends its run in
# (BenchmarkLookupOutlierHeavy: row ids, which the logical ids of whole
# keys equal); then the row store's decode, the guard on what packing its
# blocks costs a read: runs of 200 rows of a 1M-row Synthetic table, in
# random and in RID order (BenchmarkGetRun, ns/row), and the scan a Hermit
# index builds from (BenchmarkScanKeyed, ns/row); about 35 s in all.
bench: build
	$(GO) run ./cmd/hermit-bench -exp paper -scale 0.02 -measure 20ms
	$(GO) test -run '^$$' -bench 'BenchmarkCreate(BTree|Hermit)Index' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'Order|GetRandom1M|CompositeScan' -benchtime 1000000x ./internal/btree
	$(GO) test -run '^$$' -bench LookupOutlierHeavy -benchtime 1000000x ./internal/trstree
	$(GO) test -run '^$$' -bench 'GetRun|ScanKeyed' -benchtime 1s ./internal/storage

# The full artifact-producing suite: the paper sweep (`make bench`), then
# every experiment in BENCH_EXPERIMENTS in one invocation (each writes its
# BENCH_<id>.json to the repo root). This is what CI runs and uploads.
bench-all: bench
	$(GO) run ./cmd/hermit-bench -exp $(BENCH_EXPERIMENTS)

# Validate the emitted BENCH_*.json artifacts (header fields: experiment,
# seed, num_cpu, gomaxprocs; and each artifact's own contract — for
# BENCH_paper.json, rows for every figure and the paper's shapes).
bench-check:
	$(GO) run ./internal/tools/benchcheck

# Durability sweep (sync policies + recovery) with BENCH_durability.json.
bench-durability: build
	$(GO) run ./cmd/hermit-bench -exp durability

# Block-storage sweep (checkpoint pause vs table size, steady-state write
# amplification, bloom-gated cold reads) with BENCH_compaction.json.
bench-compaction: build
	$(GO) run ./cmd/hermit-bench -exp compaction

# Advisor sweep (auto-indexing latency before/after, convergence time) with
# BENCH_advisor.json.
bench-advisor: build
	$(GO) run ./cmd/hermit-bench -exp advisor

# Txn sweep (snapshot scans under writers, optimistic abort rate, snapshot
# registration overhead) with BENCH_txn.json.
bench-txn: build
	$(GO) run ./cmd/hermit-bench -exp txn

# Serving-tier sweep (loopback throughput/latency vs clients x mode x
# workload) with BENCH_server.json.
bench-server: build
	$(GO) run ./cmd/hermit-bench -exp server

# Replication sweep (follower read scaling, lag vs write rate, catch-up
# time) with BENCH_repl.json.
bench-repl: build
	$(GO) run ./cmd/hermit-bench -exp repl

# Trace-driven scenario replays (per-phase p50/p99/p999 and determinism
# hashes for every canned spec) with BENCH_scenarios.json.
bench-scenarios: build
	$(GO) run ./cmd/hermit-bench -exp scenarios

# Hot-path allocation/latency sweep (allocs/op, ns/op, throughput at
# GOMAXPROCS 1 and NumCPU for the hottest operations) with
# BENCH_hotpath.json.
bench-hotpath: build
	$(GO) run ./cmd/hermit-bench -exp hotpath

# The repository benchmark (benchmark/, BENCHMARK.json) at smoke scale:
# every workload, both passes, about ten seconds. run.sh exits non-zero
# when a workload cannot run or any operation disagrees with the oracle;
# the grep catches a result line that says so all the same.
benchmark-smoke:
	@out="$$(bash benchmark/run.sh -scale 0.01 -seconds 1 -json)" || { echo "$$out"; exit 1; }; \
	echo "$$out" | cut -c1-120; \
	if echo "$$out" | grep -q '"correct": *false'; then \
		echo "benchmark smoke: a workload returned wrong results"; exit 1; fi

# Capture labeled CPU + allocation profiles (pb.gz) from the zipf-oltp and
# timeseries scenario replays, the hot-path sweep and the serving-tier sweep
# (loopback clients x one-shot/pipelined x workload through an in-process
# server). Inspect with `go tool pprof $(PROFILE_DIR)/cpu_zipf-oltp.pb.gz`;
# CI uploads the directory.
profile: build
	@mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/hermit-bench -scenario zipf-oltp -json '' \
		-cpuprofile $(PROFILE_DIR)/cpu_zipf-oltp.pb.gz \
		-memprofile $(PROFILE_DIR)/mem_zipf-oltp.pb.gz
	$(GO) run ./cmd/hermit-bench -scenario timeseries -json '' \
		-cpuprofile $(PROFILE_DIR)/cpu_timeseries.pb.gz \
		-memprofile $(PROFILE_DIR)/mem_timeseries.pb.gz
	$(GO) run ./cmd/hermit-bench -exp hotpath -json '' \
		-cpuprofile $(PROFILE_DIR)/cpu_hotpath.pb.gz \
		-memprofile $(PROFILE_DIR)/mem_hotpath.pb.gz
	$(GO) run ./cmd/hermit-bench -exp server -json '' \
		-cpuprofile $(PROFILE_DIR)/cpu_server.pb.gz \
		-memprofile $(PROFILE_DIR)/mem_server.pb.gz
	@ls -l $(PROFILE_DIR)

# Heap census of a loaded table: 1M Synthetic rows + host B+-tree + Hermit
# index through the public API, profiled while live, and of the same table
# after five turnovers of every row (updates, deletes and inserts at a
# constant live count, no GC call); and of a 200k-row table of a DurableDB five
# turnovers after its only checkpoint, which fails if the version table holds
# more than 4 B/row there — what an unflushed row costs is a bit. The text
# reports ($(PROFILE_DIR)/heap-load.txt, heap-churn.txt and
# heap-durable-churn.txt, uploaded by CI with the pb.gz) are the artifacts a
# memory claim starts from: the second shows what writing to the table adds to
# the first, the third what serving it durably does.
heap-profile:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -count=1 -run 'TestHeapProfileOf(Load|Churn|DurableChurn)$$' . -memprofilerate 4096 \
		-heap.profile $(PROFILE_DIR)/heap-load.pb.gz -heap.churnprofile $(PROFILE_DIR)/heap-churn.pb.gz \
		-heap.durableprofile $(PROFILE_DIR)/heap-durable-churn.pb.gz
	$(GO) tool pprof -sample_index=inuse_space -top $(PROFILE_DIR)/heap-load.pb.gz > $(PROFILE_DIR)/heap-load.txt
	$(GO) tool pprof -sample_index=inuse_space -top $(PROFILE_DIR)/heap-churn.pb.gz > $(PROFILE_DIR)/heap-churn.txt
	$(GO) tool pprof -sample_index=inuse_space -top $(PROFILE_DIR)/heap-durable-churn.pb.gz > $(PROFILE_DIR)/heap-durable-churn.txt
	@head -25 $(PROFILE_DIR)/heap-load.txt $(PROFILE_DIR)/heap-churn.txt $(PROFILE_DIR)/heap-durable-churn.txt

# Non-test Go lines per top-level package — the root package, cmd, examples
# and each internal/<pkg> — and their total; benchmark/ (the repository
# benchmark, its own program) is not counted. The second column counts code
# lines alone: not blank, not comment-only. A simplicity claim quotes both,
# before and after, in CHANGES.md, and must hold in the second: trimming
# comments is no simplification. ROADMAP item 7's "non-test LOC" target is
# the first. Two subtotals follow the total: the engine (internal/engine +
# internal/partition), and the engine with the serving tier and the public
# API (+ internal/server, internal/client and the root package). The last
# line counts the public API: the exported identifiers hermitdb.go declares
# (top-level type, func, var and const names, grouped ones included).
loc:
	@total=0; code=0; en=0; ec=0; sn=0; sc=0; for d in . cmd examples internal/*; do \
		depth=; [ $$d = . ] && depth='-maxdepth 1'; \
		files=$$(find $$d $$depth -name '*.go' -not -name '*_test.go'); \
		n=$$(cat $$files | wc -l); c=$$(cat $$files | grep -cvE '^[[:space:]]*(//|$$)'); \
		printf '%-22s %6d %6d\n' $$d $$n $$c; total=$$((total + n)); code=$$((code + c)); \
		case $$d in internal/engine|internal/partition) en=$$((en + n)); ec=$$((ec + c));; esac; \
		case $$d in .|internal/engine|internal/partition|internal/server|internal/client) \
			sn=$$((sn + n)); sc=$$((sc + c));; esac; \
	done; printf '%-22s %6d %6d\n' total $$total $$code; \
	printf '%-22s %6d %6d\n' 'engine+partition' $$en $$ec '+server+client+root' $$sn $$sc
	@printf '%-22s %6d\n' 'hermitdb.go exported' \
		$$(grep -cE '^(type|func|var|const) [A-Z]|^	[A-Z][A-Za-z0-9_]* +=' hermitdb.go)

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet. The check set lives in staticcheck.conf (the
# allowlist for accepted findings). Skips with a notice when the binary is
# not installed locally — CI installs the pinned $(STATICCHECK_VERSION).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION):" \
		     "go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Godoc lint: every exported identifier in every package of the module
# must carry a doc comment.
doc-check:
	$(GO) run ./internal/tools/doccheck $$($(GO) list -f '{{.Dir}}' ./...)

ci: fmt-check vet staticcheck doc-check cover build-examples cross bench-all bench-check benchmark-smoke difftest fuzz

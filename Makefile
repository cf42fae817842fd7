# Tier-1 gate: everything `make ci` runs must stay green.

GO ?= go

.PHONY: ci vet lint build test race perfbench-test determinism serve-smoke chaos chaos-fleet chaos-cache fuzz bench bench-smoke benchjson bench-compare clean

ci: vet lint build race perfbench-test determinism serve-smoke chaos-fleet chaos-cache bench-compare

vet:
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck is pinned and fetched through
# the module proxy via `go run`; on an offline builder the fetch fails,
# so the target degrades to a no-op with a notice rather than breaking
# `make ci` (vet has already run by then).
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2024.1.1

lint:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./... ; \
	else \
		echo "lint: staticcheck unavailable (offline builder?); falling back to go vet" ; \
		$(GO) vet ./... ; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfbench/ is its own Go module (it replaces rsnrobust with this
# checkout), so `go test ./...` above never reaches it. The environment
# matches perfbench/run.sh: no workspace, no proxy, the local toolchain.
perfbench-test:
	cd perfbench && GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local $(GO) test ./...

# Determinism gate: identical fronts, picks and evaluation counts at
# every worker count, scheduler job count, island count, with the
# evaluation cache on or off, with incremental (delta) evaluation
# against the full-evaluation oracle, across checkpoint/resume
# boundaries, and under injected faults. WorkerInvariance also matches
# the island-count invariance matrix (islands x workers). SelectionOracle
# matches the read-driven two-objective selection against the full
# fitness assignment and pairwise truncation, at one and three workers.
determinism:
	$(GO) test -run 'WorkerDeterminism|WorkerInvariance|RunSetDeterminism|MemoOracle|DeltaOracle|ResumeEquivalence|ChaosGraceful|SelectionOracle' ./internal/core ./internal/moea ./internal/chaos ./cmd/rsnharden

# Service smoke gate: boot rsnserve on a loopback port and drive the
# end-to-end battery (analyze, harden, cache hit, deadline truncation,
# concurrent burst, metrics) through the real HTTP stack.
serve-smoke:
	$(GO) run ./cmd/rsnserve -selftest

# Chaos gate: the fault-injection suite (panics, cancellation, delays,
# corrupted checkpoints, crash-recovery drills) under the race
# detector.
chaos:
	$(GO) test -race ./internal/chaos

# Fleet chaos gate: the coordinator's dispatch/retry/breaker drills and
# the checkpoint-migration kill drills — including the cross-process
# SIGKILL drill in cmd/rsnserve — under the race detector. The run
# regex keeps the gate targeted; `make race` still covers everything.
chaos-fleet:
	$(GO) test -race -run 'Proxy|Breaker|Dispatch|Fleet|Migration|HalfOpen|NoHealthy|Trace|Analyze|Coordinator' ./internal/chaos ./internal/fleet ./cmd/rsnserve

# Fleet cache gate: the shared result-cache drills under the race
# detector — L1 repeats (plain, streamed, and after a SIGKILL-forced
# migration), cache-affinity routing and rendezvous resharding, the
# registry clamp/health regressions, Retry-After parsing, and the
# worker-side cache-key/disabled-cache semantics.
chaos-cache:
	$(GO) test -race -run 'FleetCache|Rendezvous|Affinity|RegistryMark|RetryAfter|ResultCacheDisabled|CacheKey' ./internal/fleet ./internal/serve

# Short fuzz pass over the hostile-input decoders: the ICL parser and
# the checkpoint codec.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParseICL -fuzztime=30s ./internal/icl
	$(GO) test -run=NONE -fuzz=FuzzCheckpointDecode -fuzztime=30s ./internal/moea

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# One-command perf smoke: every Table I row once at the reduced bench
# budget, to spot regressions before committing.
bench-smoke:
	$(GO) test -run=NONE -bench=Table1 -benchtime=1x .

# Regenerate the committed machine-readable benchmark summary
# (validated by TestBenchJSONArtifact). -jobs 1 keeps the per-row
# evolve_ms serial and therefore comparable across artifact versions.
benchjson:
	$(GO) run ./cmd/table1 -quick -maxprims 60000 -jobs 1 -benchjson BENCH_5.json

# Fail if any shared 2-objective row's evolve_ms regressed >15% vs the
# previous committed artifact (K-objective rows are excluded from the
# gate by their "objectives" tag).
bench-compare:
	$(GO) run ./cmd/benchdiff -threshold 15 BENCH_4.json BENCH_5.json

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof

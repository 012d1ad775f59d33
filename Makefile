GO ?= go

.PHONY: check fmt vet test test-benchmark race build cover bench-fleet bench-obs bench-adversary bench-image bench-federation

## check: the full tier-1 gate — formatting, vet, build, tests with the
## race detector (the lifecycle churn stress and the federation
## cross-shard churn stress must pass under -race), the coverage
## floor on the telemetry packages, and the benchmark module's tests.
check: fmt vet race cover test-benchmark

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test: test-benchmark
	$(GO) test ./...

## test-benchmark: benchmark/ is a nested module that ./... skips, so
## this is the step that fails when a change breaks a surface the
## benchmark binds to (benchmark/README.md, "The binding rule").
test-benchmark:
	$(GO) test -C benchmark ./...

race:
	$(GO) test -race ./...

## cover: enforce per-package coverage floors — the observability layer
## (obs registry/exposition, trace recorder), the Controller (lifecycle
## plus crash recovery), the journal persistence layer, the Backend
## scheduler (dispatch, lease reclaim, draining), the Provider facade
## (capacity splitting, multi-part instances, rebind), the transport
## fast path (framing, codec, coordinator/node loops), the fleet
## simulation harness (SoA engine, timing wheel integration, analytic
## cross-validation), the federation layer (consistent-hash ring,
## cross-shard rebalancing, journal failover), the netsim layer (links,
## faults, and the byzantine adversary plan), and the DSM-CC carousel
## codec (hashes, delta cycles, chunk cache, receiver interop).
COVER_PKGS ?= ./internal/obs:85 ./internal/trace:85 ./internal/span:80 ./internal/core/controller:85 ./internal/journal:78 ./internal/core/backend:82 ./internal/core/provider:80 ./internal/transport:75 ./internal/fleet:75 ./internal/federation:75 ./internal/netsim:85 ./internal/dsmcc:80
cover:
	@for entry in $(COVER_PKGS); do \
		pkg="$${entry%%:*}"; floor="$${entry##*:}"; \
		pct="$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p')"; \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; exit 1; fi; \
		ok="$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN { print (p >= f) ? 1 : 0 }')"; \
		if [ "$$ok" != 1 ]; then \
			echo "$$pkg: coverage $$pct% below floor $$floor%"; exit 1; \
		fi; \
		echo "$$pkg: coverage $$pct% (floor $$floor%)"; \
	done

## bench-fleet: regenerate the million-PNA harness gate
## (BENCH_fleet.json) — wakeup→quorum at n = 10³…10⁶ in one process,
## failing if any availability or ramp-up curve leaves its analytic
## tolerance.
bench-fleet:
	$(GO) run ./cmd/oddci-bench -sweep fleet -out BENCH_fleet.json

## bench-obs: regenerate the tracing overhead gate (BENCH_obs.json) —
## fails if the sampled-off span collector costs the task hand-off
## more than 2% versus the untraced baseline, or allocates.
bench-obs:
	$(GO) run ./cmd/oddci-bench -sweep obs -out BENCH_obs.json

## bench-adversary: regenerate the byzantine hardening gate
## (BENCH_adversary.json) — full adversarial deployments over fraction ×
## replication × seed, failing on any wrong commit at Replication 5, on
## quarantine coverage below 95% of the byzantine population, or if
## arming credibility tracking costs the honest dispatch path more
## than 3%.
bench-adversary:
	$(GO) run ./cmd/oddci-bench -sweep adversary -out BENCH_adversary.json

## bench-image: regenerate the delta image distribution gate
## (BENCH_image.json) — re-air wire bytes must stay within 1.25x the
## changed module payload at 1/16, 1/4 and full deltas, cache-warm and
## legacy receivers must both converge (the latter under 20% section
## loss), and transport staging encodes must be flat in session count.
bench-image:
	$(GO) run ./cmd/oddci-bench -sweep image -out BENCH_image.json

## bench-federation: regenerate the sharded control plane gate
## (BENCH_federation.json) — convergence at 1→16 coordinator shards must
## stay within 1.15x the single-shard baseline, a killed shard must
## journal-fail-over and reconverge with zero duplicate wakeups (also
## re-run at 10^6 PNAs in the SoA engine), and the shared chunk cache
## must hit on every shard after the first.
bench-federation:
	$(GO) run ./cmd/oddci-bench -sweep federation -out BENCH_federation.json

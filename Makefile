GO ?= go

.PHONY: check fmt vet test test-benchmark race cores build cover bench loc

## check: the full tier-1 gate — formatting, vet, build, tests with the
## race detector (the lifecycle churn stress and the federation
## cross-shard churn stress must pass under -race), the image digest at
## several core counts, the coverage floor on the telemetry packages, and
## the benchmark module's tests.
check: fmt vet race cores cover test-benchmark

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

## cores: appimage.DigestOf streams on one core and fans chunks out on
## several, chosen by GOMAXPROCS, so its package runs at 1, 2 and 4 to
## gate both paths whatever the machine's default.
cores:
	$(GO) test -cpu 1,2,4 ./internal/appimage

## cover: enforce per-package coverage floors — the observability layer
## (obs registry/exposition, the span collector with its trace and
## timeline renders), the Controller (lifecycle plus crash recovery),
## the journal persistence layer, the Backend
## scheduler (dispatch, lease reclaim, draining), the Provider facade
## (capacity splitting, recompose, rebind), the transport
## fast path (framing, codec, coordinator/node loops), the fleet
## simulation harness (SoA engine, timing wheel integration, analytic
## cross-validation) and the simtime package under it (the virtual
## clock and the wheel itself), the federation layer (consistent-hash ring,
## cross-shard rebalancing, journal failover), the netsim layer (links,
## faults, and the byzantine adversary plan), the DSM-CC carousel
## codec (hashes, delta cycles, chunk cache, receiver interop), the
## packages a carousel delivery passes through by reference, shared and
## read-only (the FLUTE wire layout, the middleware, the set-top box that owns
## the chunk cache, and the PNA that verifies what it was handed), and the
## image format whose chunk root every wakeup signs.
COVER_PKGS ?= ./internal/obs:85 ./internal/span:80 ./internal/core/controller:85 ./internal/journal:88 ./internal/core/backend:82 ./internal/core/provider:80 ./internal/transport:85 ./internal/fleet:90 ./internal/simtime:90 ./internal/federation:75 ./internal/netsim:85 ./internal/dsmcc:80 ./internal/flute:90 ./internal/middleware:90 ./internal/stb:85 ./internal/core/pna:80 ./internal/appimage:90
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

## bench: every speed and count the repository reports — the four
## workloads of BENCHMARK.json, each in a process of its own, medians and
## spreads on stdout and in benchmark/out/result.json; `go run -C
## benchmark . -compare a.json b.json` applies the bounds to two such
## files (benchmark/README.md, "Running it"). Pass/fail invariants are
## not here: they are tests, and ride in `race`.
bench:
	$(GO) run -C benchmark .

## loc: the size figures ROADMAP's "Current state" and every simplicity
## PR quote — non-test and test Go lines and the package count, for the
## root module and for benchmark/ (a module of its own).
loc:
	@for mod in . benchmark; do \
		nontest="$$(find $$mod -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"; \
		test="$$(find $$mod -path ./benchmark -prune -o -name '*_test.go' -print0 | xargs -0 cat | wc -l)"; \
		pkgs="$$($(GO) list -C $$mod ./... | wc -l)"; \
		echo "$$mod: $$nontest non-test + $$test test Go lines, $$pkgs packages"; \
	done

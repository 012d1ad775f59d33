GO ?= go

.PHONY: check fmt vet test test-benchmark race cores build cover bench loc fuzz

## check: the full tier-1 gate — formatting, vet, build, tests with the
## race detector (the lifecycle churn stress must pass under -race), the
## image digest, the fleet engine, the virtual-time kernel, the carousel
## check stage and the facade golden at several core counts, the
## coverage floor on the telemetry packages, and the benchmark module's
## tests.
check: fmt vet race cores cover test-benchmark

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## vet: benchmark/ is a nested module, so ./... never reaches it; the
## second run vets it from its own go.mod.
vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

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
## several, and the fleet engine plays a run as one id range on one core
## and as one range per core, each whole on its own wheel, on several,
## both chosen by GOMAXPROCS, so their packages run at 1, 2 and 4 to gate
## both paths whatever the machine's default (the fleet golden results
## must not move). simtime,
## netsim and dve run there too: Sim hands a parked actor a parker reused
## from its free list and books timers on recycled events, each behind a
## generation-checked waker or Timer value, every park but Sim.Sleep goes
## through a simtime.Cond (netsim's mailboxes, the Interrupter a DVE
## sleeps on), and a Link delivers from a FIFO ring that each arrival
## pops, so a stale wake or stop, or an out-of-order pop, shows up as a
## different interleaving of actors on another core count (the
## stale-handle and Cond tests pin each case). The backend runs there
## because Serve and Worker rotate LeaseSlack assignments and results
## per connection, which is sound only while the connection delivers in
## order, the worker keeps at most LeaseSlack requests out, and Serve
## handles a result before the request behind it, so a reuse that goes
## wrong shows up as a refused credential on some core count. dsmcc and
## the PNA run there because a Broadcaster shares the check stages of
## reads that complete at one instant out over GOMAXPROCS-1 helpers and
## runs them all inline on one core, and the facade golden because the
## deployment it pins must come out byte-identical either way, beside the
## allocation budget of a small deployment, which a per-timer or per-park
## allocation coming back breaks.
cores:
	$(GO) test -cpu 1,2,4 ./internal/appimage ./internal/fleet ./internal/simtime ./internal/netsim ./internal/core/dve ./internal/core/backend ./internal/dsmcc ./internal/core/pna
	$(GO) test -cpu 1,2,4 -run 'TestFacadeGoldenDeploy|TestSimDeployAllocBudget' .

## cover: enforce per-package coverage floors — the observability layer
## (obs registry/exposition, the span collector with its trace and
## timeline renders), the Controller (lifecycle plus crash recovery),
## the journal persistence layer, the Backend
## scheduler (dispatch, lease reclaim, draining), the Provider facade
## (recompose, rebind), the transport
## fast path (framing, codec, coordinator/node loops), the fleet
## simulation harness (SoA engine, timing wheel integration, analytic
## cross-validation) and the simtime package under it (the virtual
## clock and the wheel itself), the consistent-hash ring the fleet's
## sharded overlay maps nodes to shards with, the netsim layer (links,
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
## root module and for benchmark/ (a module of its own), and the exports
## allowlist's lines per tag (oracle:, seam:, roadmap N:).
loc:
	@for mod in . benchmark; do \
		nontest="$$(find $$mod -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"; \
		test="$$(find $$mod -path ./benchmark -prune -o -name '*_test.go' -print0 | xargs -0 cat | wc -l)"; \
		pkgs="$$($(GO) list -C $$mod ./... | wc -l)"; \
		echo "$$mod: $$nontest non-test + $$test test Go lines, $$pkgs packages"; \
	done
	@awk '!/^#/ && NF { k = ($$2 == "oracle:") ? 0 : ($$2 == "seam:") ? 1 : 2 + $$3; \
		tag[k] = ($$2 == "roadmap") ? $$2 " " $$3 : $$2; n[k]++ } \
		END { for (k in n) print k "\t" n[k] " " tag[k] }' testdata/exports_allowlist.txt | \
		sort -n | cut -f2 | paste -sd, - | sed 's/,/, /g; s/^/exports allowlist lines per tag: /'

## fuzz: explore each Fuzz target for FUZZTIME (default 10s), one
## `go test -fuzz` call per target, since one call fuzzes one target.
## It runs every target and then fails if any found an input that fails
## it; go test writes that input under the package's testdata/fuzz,
## where it is committed with its fix. check does not run it: tier-1
## replays the committed corpora instead.
FUZZTIME ?= 10s
FUZZ_TARGETS = ./internal/control:FuzzOpenAll ./internal/control:FuzzDecodeHeartbeat \
	./internal/control:FuzzAppImageDecode ./internal/journal:FuzzDecodeJournal \
	./internal/mpegts:FuzzDecodeSection ./internal/mpegts:FuzzParsePacket \
	./internal/mpegts:FuzzAssembler ./internal/transport:FuzzReadFrame \
	./internal/transport:FuzzTaskPlaneCodec ./internal/transport:FuzzImagePlaneCodec \
	./internal/fleet:FuzzFleetConfig ./internal/core/backend:FuzzCredential
fuzz:
	@failed=""; \
	for entry in $(FUZZ_TARGETS); do \
		pkg="$${entry%%:*}"; fn="$${entry##*:}"; \
		echo "== $$fn ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME) $$pkg || failed="$$failed $$fn"; \
	done; \
	if [ -n "$$failed" ]; then echo "fuzz failures:$$failed"; exit 1; fi

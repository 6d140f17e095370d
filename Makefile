GO ?= go

.PHONY: all build vet staticcheck lint test race short scrubrace transportrace churnrace storagerace clusterquick benchsmoke figures bench ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Skips (with a notice) when the staticcheck
# binary is not installed, so offline/container builds stay green.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Formatting, then the project invariant analyzers (locksafe, wiremsg,
# detrand, droppederr, mapsort, readpath). Stdlib-only and offline — unlike
# staticcheck this is never skipped; see DESIGN.md "Enforced invariants".
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/corec-lint ./...

test:
	$(GO) test -vet=all ./...

# Race-enabled run of the fast suite; the chaos/stochastic tests skip
# themselves under -short.
race:
	$(GO) test -race -short ./...

short:
	$(GO) test -short ./...

# Race-detector pass focused on the background anti-entropy scrubber and
# chaos paths: the concurrent scrub/foreground test runs even under -short
# precisely so this job covers the scrubber goroutines. The scrub and
# verified-read tests then repeat: the restores a pass triggers race the
# puts, encodes and reads of the keys they install.
scrubrace:
	$(GO) test -race -run 'TestScrub|TestChaos|TestVerifiedRead' ./...
	$(GO) test -race -count=10 -run 'TestScrub|TestVerifiedRead' . ./internal/server

# Race-detector pass focused on the transport's buffer-ownership rule:
# response payloads land in caller memory (Message.RecvInto), and the tests
# that cancel, time out and break connections in mid-payload only prove
# anything when the detector watches the buffer — repeated, because the
# windows they aim at are narrow. The reader names those windows (a shard's
# place in its object's buffer) and fills them from parallel fetches, so its
# tests run the same way. The root subset drives the same path through
# Get/GetInto against the reference model; the message-count tests hold an
# encoded object to its one record (what a put, a get, an eviction and a
# rewrite put on the fabric) and line up concurrent fan-outs, so they repeat
# under the detector too — as do the tests that own the one-mirror lookup:
# its message counts, a lagging or empty first mirror, a dead one — and the
# primary-first read: its message counts and its fall-back on a miss. The
# per-hop payload-check count over TCP repeats too: its counting hook must be
# in place before any server listens.
transportrace:
	$(GO) test -race -count=5 ./internal/transport ./internal/reader
	$(GO) test -race -run 'TestGet|TestRandomOpsAgainstReferenceModel' .
	$(GO) test -race -count=5 -run 'TestEncodedObjectCostsOneRecord|TestRewriteDropsSupersededStripeWithoutTheDirectory|TestGetAsksOneDirectoryGroup|TestLaggingMirrorIsSettledByItsTwin|TestPeerHealthEncodedReadHealthyShards|TestAlignedGetAsksThePrimaryFirst|TestPrimaryMissFallsBackToTheDirectory' .
	$(GO) test -race -count=5 -run TestPutChecksPayloadOncePerHopOverTCP ./internal/server

# Race-detector pass focused on elastic membership churn: gossip agents,
# dynamic ring, and the paced migrator running against foreground traffic —
# and the monitor, which reads the liveness table gossip and every send
# write, repeated because its detection and recovery race the fleet, with the
# failed-over write recovery restores and the pings that must leave gossip be;
# the migrator's record edits, repeated because the restores they start race
# the pass and the foreground; and a remote client's on-access repair of a
# replacement, repeated because its nudge races the lazy drain.
churnrace:
	$(GO) test -race -run 'TestElastic' .
	$(GO) test -race -count=5 -run 'TestMonitor|TestElasticMonitor|TestPutFailover|TestClientPing' .
	$(GO) test -race -count=5 -run 'TestRebalance' .
	$(GO) test -race -count=5 -run 'TestRemoteDegradedReadRepairsOnAccess' .
	$(GO) test -race ./internal/membership ./internal/topology ./internal/placement

# Race-detector pass focused on the tiered storage engine: the concurrent
# spill/upload/prefetch chaos tests plus the cluster-level kill-restart
# recovery of the disk tier. The failed-job exit tests repeat: a delete or
# re-put lands while the job that must settle it is in flight.
storagerace:
	$(GO) test -race ./internal/storage
	$(GO) test -race -count=10 -run 'TestFailedJobSettles' ./internal/storage
	$(GO) test -race -run 'TestTiered' .

# Multi-process cluster harness, CI-budgeted: real corec-server OS
# processes over TCP — the process-level kill/restart and operator-CLI
# suites, then the open-loop quick scenario matrix (fault-free +
# kill-restart arms, SLO invariants enforced by TestQuickScenarioMatrix)
# under the race detector. That test logs each SLO row as one JSON line
# before checking it, so a failing run's log still carries the table.
clusterquick:
	$(GO) test -timeout 8m -skip TestQuickScenarioMatrix ./internal/cluster
	$(GO) test -timeout 12m -race -run TestQuickScenarioMatrix ./internal/cluster

# The staging benchmark (bench/, see BENCHMARK.json) is its own Go module,
# so neither `go test ./...` nor `go vet ./...` above reaches it: vet it and
# run its smoke test (a short run of every workload, correctness-checked)
# plus the BENCHMARK.json drift guard here. Its go.mod replaces corec with
# the parent directory and needs nothing from the network.
benchsmoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# figures regenerates every paper table and figure at -quick sizes (one
# Fig. 8 sweep, one S3D sweep) and fails if any table's CSV is missing or
# empty. Table I and the model validation are text only.
FIGURES := fig2 fig4 fig8 fig9 fig10 table2 fig11 fig12 read-penalty

figures:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/corec-bench -experiment all -quick -csv "$$dir" || exit 1; \
	for f in $(FIGURES); do \
		[ -s "$$dir/$$f.csv" ] || { echo "figures: $$f.csv missing"; exit 1; }; \
	done

# bench smoke-runs every Go benchmark once. The gated performance ledger is
# the staging benchmark (bench/, BENCHMARK.json); see benchsmoke above.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

ci: vet staticcheck lint build race scrubrace transportrace churnrace storagerace test figures benchsmoke clusterquick

clean:
	$(GO) clean ./...

# LDplayer (Go reproduction) build targets.

GO ?= go

.PHONY: all build test race bench-check bench-selftest vet fmt-check lint check fuzz-smoke experiments tools loc clean

# Per-target budget for the fuzz smoke pass (see fuzz-smoke).
FUZZTIME ?= 30s

all: build test

build:
	$(GO) build ./...

tools:
	$(GO) install ./cmd/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Tracked Go files outside testdata/ must be gofmt-clean. The golden
# fixtures under testdata/ are exempt: their `// want` lines are
# position-sensitive.
fmt-check:
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

# Project-specific static analysis: go vet plus ldp-vet, which enforces
# LDplayer's architectural invariants (transport-only I/O, simulated
# clock discipline, metric naming, stats atomicity, error checking,
# mutex/blocking hygiene, message-pool ownership, shard confinement,
# transient-buffer aliasing). -stale also fails on //ldp:nolint
# comments that no longer suppress anything, so suppressions cannot
# rot. See DESIGN.md "Static analysis & fuzzing".
lint: vet
	$(GO) run ./cmd/ldp-vet -dir . -stale -time

# bench/ (the BENCHMARK.json harness) is a module of its own, outside
# `go build ./...` and `go test ./...`: vet and test it against this
# tree so an internal/* API change cannot break the benchmark unseen.
bench-selftest:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Everything CI runs, in one target.
check: build vet fmt-check lint test race bench-selftest

# Short fuzz pass over the wire-format decoders (plus the differential
# targets: pooled-vs-reference decode, and the direct query encoder
# against SetQuestion + SetEDNS + Pack); CI runs this on every push. Crash
# inputs land in <pkg>/testdata/fuzz/ — commit them so they become
# permanent regression seeds.
fuzz-smoke:
	$(GO) test -fuzz=FuzzMsgRoundTrip -fuzztime=$(FUZZTIME) ./internal/dnsmsg
	$(GO) test -fuzz=FuzzUnpackPooledEquivalence -fuzztime=$(FUZZTIME) ./internal/dnsmsg
	$(GO) test -fuzz=FuzzNameUnpack -fuzztime=$(FUZZTIME) ./internal/dnsmsg
	$(GO) test -fuzz=FuzzAppendQuery -fuzztime=$(FUZZTIME) ./internal/dnsmsg
	$(GO) test -fuzz='^FuzzZoneParse$$' -fuzztime=$(FUZZTIME) ./internal/zone
	$(GO) test -fuzz=FuzzZoneParseDifferential -fuzztime=$(FUZZTIME) ./internal/zone
	$(GO) test -fuzz='^FuzzPCAPRead$$' -fuzztime=$(FUZZTIME) ./internal/pcap
	$(GO) test -fuzz=FuzzPCAPReadZeroCopy -fuzztime=$(FUZZTIME) ./internal/pcap

# The hot-path regression tests alone: each hot-path package's
# TestAllocBounds (allocs/op bounds, one row per benchmark it holds;
# TestStreamParserZeroAlloc and TestReadZeroCopySteadyStateAllocs hold
# the zero-alloc parser and pcap scan) and the two same-run speedup
# ratios, TestZoneParseSpeedup (streaming zone parser >= 10x the
# classic one) and TestReplaySpeedup (batched replay plane >= 5x its
# per-item reference). `make test` runs them too; `go test -bench`
# still reports the benchmarks, ungated.
bench-check:
	$(GO) test -count=1 -run 'TestAllocBounds|Speedup|TestStreamParserZeroAlloc|TestReadZeroCopySteadyStateAllocs' ./internal/...

# Non-test Go lines outside bench/ and testdata/, over tracked files:
# the code-size figure ROADMAP.md tracks.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -Ev '^bench/|(^|/)testdata/' | xargs cat | wc -l

# Regenerate every table and figure (about six minutes at small scale).
experiments:
	$(GO) run ./cmd/ldp-experiments -run all -scale small

clean:
	$(GO) clean ./...

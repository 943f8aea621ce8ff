# LDplayer (Go reproduction) build targets.

GO ?= go

.PHONY: all build test race bench bench-check bench-selftest vet fmt-check lint check fuzz-smoke experiments tools loc clean

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

# Benchmarks (allocs/op on the transport exchange hot path included);
# results refresh the committed bench.out baseline that CI gates
# against. The redirect (not a pipe) keeps go test's exit status: a
# failing benchmark fails the target instead of being masked by tee.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./... > bench.tmp || { cat bench.tmp; rm -f bench.tmp; exit 1; }
	mv bench.tmp bench.out
	cat bench.out

# Re-measure the gated hot-path benchmarks (transport exchange, message
# codec, server answer cache, zone lookup, cluster replay, replay data
# plane) and compare against the committed baseline; fails on >20%
# allocs/op regression. These packages are the serve/replay fast path
# the pooled codec and answer cache keep allocation-free, the netsim
# cluster engine whose per-query scheduling must stay allocation-free,
# and the emulated hierarchy's cold resolution (resolver, proxies, vnet,
# meta-server). The second -speedup gates the batched replay engine
# against its per-item reference plane (test-only: reference_test.go) on
# the in-process fabric pair
# (same run, same fabric — hardware cancels out; see bench_test.go for
# why the loopback variants are reported but not gated).
bench-check:
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/transport ./internal/dnsmsg ./internal/server ./internal/zone ./internal/pcap ./internal/netsim ./internal/replay ./internal/hierarchy > bench.new || { cat bench.new; rm -f bench.new; exit 1; }
	$(GO) run ./cmd/ldp-benchdiff -baseline bench.out -new bench.new -match 'internal/(transport|dnsmsg|server|zone|pcap|netsim|replay|hierarchy)\.' \
		-speedup 'recs/s:ldplayer/internal/zone.BenchmarkZoneParseStreaming:ldplayer/internal/zone.BenchmarkZoneParseClassic:10' \
		-speedup 'qps:ldplayer/internal/replay.BenchmarkReplayFastUDP:ldplayer/internal/replay.BenchmarkReplayFastUDPReference:5'

# Non-test Go lines outside bench/ and testdata/, over tracked files:
# the code-size figure ROADMAP.md tracks.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -Ev '^bench/|(^|/)testdata/' | xargs cat | wc -l

# Regenerate every table and figure (about six minutes at small scale).
experiments:
	$(GO) run ./cmd/ldp-experiments -run all -scale small

clean:
	$(GO) clean ./...

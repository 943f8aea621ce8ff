// Package obs is the live observability layer: lock-free instruments
// (counters, gauges, fixed-bucket histograms) held in a process-wide
// registry, snapshotted while the system runs. The paper's evaluation is
// entirely measurement-driven — per-second query rates, latency
// percentiles, server resource use (Figs 9, 13, 14, §4) — and the
// runtime components publish exactly those signals here so a replay can
// be observed *while it executes* instead of only from an end-of-run
// report.
//
// Instruments are named "<namespace>.<subsystem>.<metric>" (for example
// "transport.conn.dials", "server.queries.udp", "replay.sent"); the
// namespace is the owning package. Histograms carry a unit suffix
// ("..._seconds"). Every write is a single atomic operation, so
// instruments sit on hot paths (the transport exchange loop, the
// server's UDP workers) without locks and without allocation.
//
// A Registry is snapshotted at any time — including concurrently with
// writers — and rendered as JSON or line-protocol text, served over HTTP
// ("/vars", plus net/http/pprof) via Handler/ServeDebug, or emitted
// periodically with Every.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use, but instruments are normally obtained from a Registry so they
// appear in snapshots.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterFunc is a pull-style counter: the value is computed by a
// callback at scrape time instead of pushed by writers. It bridges
// components that keep their own atomic counters and must not depend
// on obs (the dnsmsg message pool sits below every other package), at
// the cost of the callback running on every snapshot.
type CounterFunc struct {
	fn func() uint64
}

// Value invokes the callback.
func (c *CounterFunc) Value() uint64 { return c.fn() }

// Gauge is an instantaneous float64 value (a level, not a total):
// currently open connections, the replay clock's current offset, a rate.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta (CAS loop; gauges are low-frequency).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bounds are the
// inclusive upper edges of each bucket in ascending order; one implicit
// overflow bucket catches everything above the last bound. Observe is a
// bucket walk plus two atomic adds — safe from any number of goroutines,
// safe to snapshot mid-write.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sumNs  atomic.Int64 // sum in nano-units (value × 1e9) to stay atomic
}

// newHistogram builds a histogram over the given bucket bounds; bounds
// must be ascending (a copy is taken).
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(v * 1e9))
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramBatch is a single-goroutine accumulator over a Histogram for
// per-sample recording on paths hot enough that three atomic adds and a
// float conversion per observation show up (the replay fast path at
// millions of qps). The owner observes locally — an integer bucket walk,
// no atomics — and folds the pending samples into the shared Histogram
// with Flush, one atomic add per touched bucket. Readers of the shared
// Histogram lag by at most one unflushed batch.
type HistogramBatch struct {
	h        *Histogram
	boundsNs []int64 // bucket bounds in nanoseconds
	counts   []uint64
	n        uint64
	sumNs    int64
}

// NewBatch builds a local accumulator bound to h. Not safe for
// concurrent use; each owning goroutine takes its own.
func (h *Histogram) NewBatch() *HistogramBatch {
	bn := make([]int64, len(h.bounds))
	for i, b := range h.bounds {
		bn[i] = int64(b * 1e9)
	}
	return &HistogramBatch{h: h, boundsNs: bn, counts: make([]uint64, len(h.bounds)+1)}
}

// ObserveDuration records one duration into the local buckets.
func (b *HistogramBatch) ObserveDuration(d time.Duration) {
	v := int64(d)
	i := 0
	for i < len(b.boundsNs) && v > b.boundsNs[i] {
		i++
	}
	b.counts[i]++
	b.n++
	b.sumNs += v
}

// Flush folds the pending samples into the shared Histogram.
func (b *HistogramBatch) Flush() {
	if b.n == 0 {
		return
	}
	for i, c := range b.counts {
		if c != 0 {
			b.h.counts[i].Add(c)
			b.counts[i] = 0
		}
	}
	b.h.count.Add(b.n)
	b.h.sumNs.Add(b.sumNs)
	b.n, b.sumNs = 0, 0
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / 1e9 }

// LatencyBuckets is the default bucket set for DNS latencies: 100 µs to
// 10 s, roughly ×2.5 per step — covering loopback RTTs, the paper's
// emulated link delays, and client timeouts.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// FineLatencyBuckets extends LatencyBuckets down to 250 ns for the
// replay client's schedule lag, pacer wakes and loopback RTT, whose
// medians sit below LatencyBuckets' first bound: a paced send is late
// by well under a microsecond, a timer wake by several.
var FineLatencyBuckets = append([]float64{
	0.00000025, 0.0000005, 0.000001, 0.0000025, 0.000005,
	0.00001, 0.000025, 0.00005,
}, LatencyBuckets...)

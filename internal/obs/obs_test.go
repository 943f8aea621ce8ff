package obs

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterParallel hammers one counter from many goroutines and
// checks the increments sum exactly — the property every hot-path
// instrument relies on.
func TestCounterParallel(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t.parallel")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	// Get-or-create must return the same instrument.
	if r.Counter("t.parallel") != c {
		t.Fatal("second Counter() returned a different instrument")
	}
}

func TestGaugeAddParallel(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("t.gauge")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				g.Add(1)
				g.Add(-1)
			}
			g.Add(2)
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 2*workers {
		t.Fatalf("gauge = %v, want %v", got, 2*workers)
	}
}

// TestHistogramBoundaries pins the bucket edge semantics: a value equal
// to a bound lands in that bound's bucket; above the last bound lands in
// overflow.
func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t.hist", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.0001, 10, 99, 100, 1000} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2, 1} // (..1], (1..10], (10..100], overflow
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-1211.5001) > 0.01 {
		t.Errorf("sum = %v, want ~1211.5", sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t.q", []float64{1, 2, 4, 8})
	// 100 observations uniform in (0,1]: p50 should interpolate inside
	// the first bucket, p99 stays below 1.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	snap := r.Snapshot().Histograms["t.q"]
	if p50 := snap.Quantile(0.5); p50 <= 0 || p50 > 1 {
		t.Errorf("p50 = %v, want within (0,1]", p50)
	}
	// Overflow-heavy: quantile clamps to the last bound.
	h2 := r.Histogram("t.q2", []float64{1})
	for i := 0; i < 10; i++ {
		h2.Observe(100)
	}
	if p := r.Snapshot().Histograms["t.q2"].Quantile(0.9); p != 1 {
		t.Errorf("overflow quantile = %v, want clamp to 1", p)
	}
	var empty HistogramSnapshot
	if p := empty.Quantile(0.5); p != 0 {
		t.Errorf("empty quantile = %v, want 0", p)
	}
}

// TestFineBucketsResolveSubMicrosecond: on FineLatencyBuckets a send
// 0.4 µs late and one 7 µs late read as different medians, and the sum
// keeps the sub-microsecond part.
func TestFineBucketsResolveSubMicrosecond(t *testing.T) {
	r := NewRegistry()
	p50 := func(name string, d time.Duration) float64 {
		h := r.Histogram(name, FineLatencyBuckets)
		h.ObserveDuration(d)
		return r.Snapshot().Histograms[name].Quantile(0.5)
	}
	sub, late := p50("t.sub_seconds", 400*time.Nanosecond), p50("t.late_seconds", 7*time.Microsecond)
	if sub >= late || sub > 0.5e-6 || late < 5e-6 {
		t.Errorf("p50 of 0.4µs = %v s, of 7µs = %v s: want them in (0.25, 0.5] and (5, 10] µs", sub, late)
	}
	if sum := r.Snapshot().Histograms["t.sub_seconds"].Sum; sum != 400e-9 {
		t.Errorf("sum of one 0.4µs observation = %v s", sum)
	}
}

// TestSnapshotWhileWriting snapshots continuously while writers run;
// under -race this proves the read path takes no locks it shouldn't and
// tears no values.
func TestSnapshotWhileWriting(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t.c")
	g := r.Gauge("t.g")
	h := r.Histogram("t.h", LatencyBuckets)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					g.Set(float64(c.Value()))
					h.Observe(0.001)
				}
			}
		}()
	}
	var last uint64
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		if v := s.Counters["t.c"]; v < last {
			t.Fatalf("counter went backwards: %d < %d", v, last)
		} else {
			last = v
		}
		hs := s.Histograms["t.h"]
		var sum uint64
		for _, b := range hs.Counts {
			sum += b
		}
		if sum > hs.Count+4 { // writers may be mid-Observe; never wildly off
			t.Fatalf("bucket sum %d exceeds count %d by more than writer count", sum, hs.Count)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRenderJSONAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(3)
	r.Gauge("b.level").Set(1.5)
	r.Histogram("c.lat_seconds", []float64{1, 2}).Observe(0.5)

	var jsonBuf strings.Builder
	if err := r.Snapshot().WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal([]byte(jsonBuf.String()), &decoded); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if decoded.Counters["a.count"] != 3 || decoded.Gauges["b.level"] != 1.5 {
		t.Fatalf("decoded snapshot wrong: %+v", decoded)
	}
	if decoded.Histograms["c.lat_seconds"].Count != 1 {
		t.Fatalf("histogram not in JSON: %+v", decoded.Histograms)
	}

	var txt strings.Builder
	if err := r.Snapshot().WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"a.count 3", "b.level 1.5", "c.lat_seconds.count 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Sorted output: a before b before c.
	if strings.Index(out, "a.count") > strings.Index(out, "b.level") {
		t.Errorf("text output not sorted:\n%s", out)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t.x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering t.x as a gauge")
		}
	}()
	r.Gauge("t.x")
}

// TestRegistryRejectsMalformedName pins the naming rule every getter
// applies when it creates a series: lowercase dot-separated segments,
// the last of which may be an upper-case wire mnemonic.
func TestRegistryRejectsMalformedName(t *testing.T) {
	for _, name := range []string{
		"server.queries", "server.queries.udp", "server.bytes_in",
		"server.rcode.NOERROR", "replay.rcode.RCODE11", "server.qtype.TYPE65",
	} {
		NewRegistry().Counter(name)
	}
	register := map[string]func(r *Registry, name string){
		"Counter":        func(r *Registry, name string) { r.Counter(name) },
		"CounterFunc":    func(r *Registry, name string) { r.CounterFunc(name, func() uint64 { return 0 }) },
		"Gauge":          func(r *Registry, name string) { r.Gauge(name) },
		"Histogram":      func(r *Registry, name string) { r.Histogram(name, LatencyBuckets) },
		"ShardedCounter": func(r *Registry, name string) { r.ShardedCounter(name) },
	}
	for _, name := range []string{
		"queries", "Server.queries", "server.bytesIn", "server.Queries.udp",
		"server.rcode.NoError", "server..queries", "server.queries.", "server-queries.udp", "",
	} {
		for kind, reg := range register {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%q) registered a malformed name", kind, name)
					}
				}()
				reg(NewRegistry(), name)
			}()
		}
	}
}

func TestEvery(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t.tick")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan Snapshot, 8)
	go Every(ctx, r, 5*time.Millisecond, func(s Snapshot) {
		select {
		case got <- s:
		default:
		}
	})
	c.Add(7)
	select {
	case s := <-got:
		if s.Counters["t.tick"] != 7 {
			t.Fatalf("snapshot counter = %d, want 7", s.Counters["t.tick"])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no snapshot delivered")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ldplayer/internal/trace"
)

// The windowed feed must never have more than its window outstanding,
// and must let go of a window whose answers never come.
func TestWindowFeedBoundsAndReleases(t *testing.T) {
	var settled, sent atomic.Uint64
	f := &windowFeed{
		events: hotEvents(8), window: 16,
		settled: settled.Load, sent: sent.Load,
		warmup: 0, length: 400 * time.Millisecond,
		stallAfter: 30 * time.Millisecond, poll: 50 * time.Microsecond,
	}
	// A stand-in engine: it writes what it is handed at once, answers
	// for the first 150 ms, then goes silent.
	buf := make([]*trace.Event, 32)
	start := time.Now()
	var handed uint64
	for {
		n, err := f.ReadBatch(buf)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		handed += uint64(n)
		sent.Store(handed)
		if out := handed - settled.Load() - f.forgiven; out > uint64(f.window) {
			t.Fatalf("%d events outstanding, window is %d", out, f.window)
		}
		if time.Since(start) < 150*time.Millisecond {
			settled.Store(handed)
		}
	}
	if f.stalls == 0 {
		t.Error("feed never released the window although answers stopped")
	}
	if f.handed.Load() != handed || handed < uint64(2*f.window) {
		t.Errorf("handed %d (feed says %d), expected well over the window", handed, f.handed.Load())
	}
	if len(f.latency) == 0 || len(f.lag) == 0 {
		t.Errorf("feed took %d latency and %d lag samples", len(f.latency), len(f.lag))
	}
}

// The percentile helpers say how many samples stand behind a figure and
// refuse a percentile the sample cannot support.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{19, 0, false}, {20, 0.50, true}, {99, 0.75, true}, {100, 0.90, true}, {1000, 0.99, true}, {1 << 20, 0.9999, true}} {
		if p, ok := highestSupported(c.n); p != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	var ss []sample
	for i := 0; i < 300; i++ { // three slices of 100 samples, values 0..99
		ss = append(ss, sample{at: time.Duration(i/100) * time.Second, us: float64(i % 100)})
	}
	v, n, slices := slicedQuantile(ss, time.Second, time.Second, 0.90)
	if n != 200 || slices != 2 || v < 88 || v > 90 {
		t.Errorf("p90 after warm-up = %v over %d samples in %d slices; want ~89 over 200 in 2", v, n, slices)
	}
	if _, n, slices := slicedQuantile(ss, 0, time.Second, 0.99); n != 0 || slices != 0 {
		t.Errorf("p99 of 100-sample slices used %d samples in %d slices; no slice supports it", n, slices)
	}
}

func TestFrameScannerFindsEveryID(t *testing.T) {
	var stream []byte
	for id := 1; id <= 5; id++ {
		body := make([]byte, 10+id)
		body[0], body[1] = 0, byte(id)
		stream = append(stream, byte(len(body)>>8), byte(len(body)))
		stream = append(stream, body...)
	}
	for _, step := range []int{1, 2, 3, 7, len(stream)} {
		var fs frameScanner
		var got []byte
		for off := 0; off < len(stream); off += step {
			fs.scan(stream[off:min(off+step, len(stream))], func(id [2]byte) { got = append(got, id[1]) })
		}
		if !bytes.Equal(got, []byte{1, 2, 3, 4, 5}) {
			t.Errorf("pieces of %d bytes: found IDs %v", step, got)
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workloads.go are what the program reports. They must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var bf struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, the table %q / %q",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the table %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, table %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

func TestAgreeFlagsABreach(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps, lag float64) string {
		set := resultSet{Runs: []runRecord{{Workload: "w", EndToEnd: map[string]float64{"answered_qps": qps, "sched_lag_p50_us": lag}}}}
		b, _ := json.Marshal(set)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bounds := filepath.Join(dir, "BENCHMARK.json")
	b, _ := json.Marshal(benchmarkFile{EndToEnd: []metricDef{
		{"answered_qps", "1/s", "higher", 0.10}, {"sched_lag_p50_us", "us", "lower", 0.10}}})
	if err := os.WriteFile(bounds, b, 0o644); err != nil {
		t.Fatal(err)
	}
	a := write("a.json", 1000, 100)
	if ok, err := agreeFiles(io.Discard, bounds, a, write("b.json", 950, 105)); err != nil || !ok {
		t.Errorf("5%% worse on both: ok=%v err=%v, want agreement", ok, err)
	}
	if ok, err := agreeFiles(io.Discard, bounds, a, write("c.json", 1200, 120)); err != nil || ok {
		t.Errorf("lag 20%% worse: ok=%v err=%v, want a breach", ok, err)
	}
	if ok, err := agreeFiles(io.Discard, bounds, a, write("d.json", 850, 90)); err != nil || ok {
		t.Errorf("qps 15%% lower: ok=%v err=%v, want a breach", ok, err)
	}
}

// A quick run of all four workloads, untraced and traced, must pass the
// oracle and the conservation identity and report every metric — which
// also keeps the harness compiling against internal/* as they change.
func TestQuickSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real replays over loopback")
	}
	procs := min(runtime.NumCPU(), 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	env := readEnvironment(procs)
	sc := newScale(0.5, true, procs)
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		rec, err := runWorkload(w, 1, sc, dir, env, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct {
			t.Errorf("%s: %v", w.name, rec.Problems)
		}
		if rec.Attempted == 0 || rec.Failed > rec.Attempted/100 {
			t.Errorf("%s: attempted %d, failed %d", w.name, rec.Attempted, rec.Failed)
		}
		for _, d := range endToEnd {
			if v, ok := rec.EndToEnd[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (reported: %v)", w.name, d.Name, v, ok)
			}
		}
		for name := range rec.PerLayer {
			known := false
			for _, d := range perLayer {
				known = known || d.Name == name
			}
			if !known {
				t.Errorf("%s: per-layer metric %s is reported but not in the table", w.name, name)
			}
		}
		if rec.PerLayer["bench.trace_samples"] == 0 {
			t.Errorf("%s: the traced pass joined no sampled query across all seams", w.name)
		}
	}
}

// Command bench is the repository's benchmark: one process hosts the
// server side and the replay engine through the same library entry
// points the CLIs call, joined by real loopback sockets, and measures
// the whole pipeline end to end and layer by layer. README.md in this
// directory describes the workloads, the metrics and how to read them.
//
//	bash bench/run.sh                         every workload, untraced then traced
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh -agree A.json B.json    compare two result files
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// runRecord is one workload's result at one seed.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// resultSet is what a standalone run writes and -agree reads.
type resultSet struct {
	Env     environment `json:"env"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all four)")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "length of the measured window of the untraced pass")
		traceFl = flag.Int("trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; -1: both")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "ldp-bench"), "directory for trace files, spans and results")
		quick   = flag.Bool("quick", false, "smoke-test scale: half a second per pass, small zones, few sources")
		runs    = flag.Int("runs", 1, "standalone: seeds per workload (seed, seed+1, ...)")
		out     = flag.String("out", "", "standalone: result file (default <workdir>/results.json)")
		agree   = flag.Bool("agree", false, "compare two result files against the bounds in BENCHMARK.json")
		bounds  = flag.String("bounds", "", "with -agree: path of BENCHMARK.json (default: found from the working directory)")
	)
	flag.Parse()
	if *agree {
		if flag.NArg() != 2 {
			fatal(errors.New("-agree needs two result files"))
		}
		ok, err := agreeFiles(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	env := readEnvironment(procs)
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	if *quick {
		*seconds = 0.5
	}
	sc := newScale(*seconds, *quick, procs)

	if *name != "" && *traceFl >= 0 {
		// One workload, one pass: the form the driver calls.
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rec, err := runWorkload(w, *seed, sc, *workdir, env, *traceFl == 0, *traceFl == 1)
		if err != nil {
			fatal(err)
		}
		defs, values := endToEnd, rec.EndToEnd
		if *traceFl == 1 {
			defs, values = perLayer, rec.PerLayer
		}
		printRecord(rec, env)
		if err := printDriverLine(rec, defs, values); err != nil {
			fatal(err)
		}
		if !rec.Correct {
			os.Exit(1)
		}
		return
	}

	// Standalone: every workload, every seed, each pass in a process of
	// its own, exactly as the driver runs them, so that a high-water
	// mark or a warm pool from one run cannot colour the next.
	modes := []int{0, 1}
	if *traceFl >= 0 {
		modes = []int{*traceFl}
	}
	set := resultSet{Env: env, Seconds: *seconds}
	failed := false
	for i := range workloads {
		w := &workloads[i]
		if *name != "" && w.name != *name {
			continue
		}
		for k := 0; k < *runs; k++ {
			rec := runRecord{Workload: w.name, Seed: *seed + int64(k), Correct: true}
			for _, mode := range modes {
				line, err := runChild(w.name, rec.Seed, *seconds, *quick, *workdir, mode)
				if err != nil {
					fatal(err)
				}
				values := map[string]float64{}
				for name, v := range line.Metrics {
					values[name] = v.Value
				}
				if mode == 0 {
					rec.EndToEnd = values
				} else {
					rec.PerLayer = values
				}
				if mode == 0 || rec.EndToEnd == nil {
					rec.Attempted, rec.Failed = line.Attempted, line.Failed
				}
				rec.Correct = rec.Correct && line.Correct
			}
			set.Runs = append(set.Runs, rec)
			failed = failed || !rec.Correct
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(*workdir, "results.json")
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("results written to %s\n", path)
	if failed {
		os.Exit(1)
	}
}

// runChild runs this program again for one workload, seed and pass,
// copies what it prints and returns its result line.
func runChild(name string, seed int64, seconds float64, quick bool, workdir string, mode int) (*driverLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workdir", workdir, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(mode)}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to end
	text, last := cutLastLine(out)
	os.Stdout.Write(text)
	var line driverLine
	if err := json.Unmarshal(last, &line); err != nil {
		// No result line: the child failed outright and said why on stderr.
		return nil, fmt.Errorf("%s seed %d trace %d: %w", name, seed, mode, errors.Join(runErr, err))
	}
	return &line, nil // an incorrect run exits 1 but still reports
}

// cutLastLine splits output into everything before its last line and
// that line.
func cutLastLine(out []byte) (before, last []byte) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	return out[:i+1], out[i+1:]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// newScale fixes the pass shape from the measured length: a warm-up of
// a fifth of it (at most 2 s) that is replayed but not measured, and
// ten slices to take medians over.
func newScale(seconds float64, quick bool, procs int) scale {
	length := time.Duration(seconds * float64(time.Second))
	slice := (length / 10).Round(10 * time.Millisecond)
	slice = min(max(slice, 100*time.Millisecond), time.Second)
	warm := min(length/5, 2*time.Second).Round(slice)
	return scale{warmup: max(warm, slice), length: length, slice: slice, quick: quick, procs: procs}
}

// setupRepeats is how many times the untraced run sets the workload up;
// setup_s is the median, so one slow set-up does not move it.
const setupRepeats = 5

// runWorkload measures one workload at one seed: the untraced pass for
// the end-to-end metrics, the traced pass and the direct measurements
// for the per-layer ones, or both.
func runWorkload(w *workload, seed int64, sc scale, dir string, env environment, untraced, traced bool) (*runRecord, error) {
	if !sc.quick {
		if err := checkNoFile(env, w.descriptors()); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	rec := &runRecord{Workload: w.name, Seed: seed}
	note := func(m *measurement, pass string) {
		rec.Attempted, rec.Failed = m.attempted, m.failed()
		for _, p := range m.problems {
			rec.Problems = append(rec.Problems, pass+": "+p)
		}
	}

	if untraced {
		repeats := setupRepeats
		if sc.quick {
			repeats = 1
		}
		var r *rig
		var took []float64
		for i := 0; i < repeats; i++ {
			if r != nil {
				r.tearDown()
				runtime.GC()
			}
			t0 := time.Now()
			var err error
			if r, err = w.setUp(seed, sc, dir, nil); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			took = append(took, time.Since(t0).Seconds())
		}
		m, err := runPass(r, sc, nil)
		r.tearDown()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		m.e2e["setup_s"] = median(took)
		// What the untraced pass itself shows of single layers (each
		// loss by name, the tails); the traced pass replaces it.
		rec.EndToEnd, rec.PerLayer = m.e2e, m.layers
		note(m, "untraced")
	}

	if traced {
		// The traced pass and its untraced reference are half as long;
		// their difference is what tracing costs.
		half := newScale(sc.length.Seconds()/2, sc.quick, sc.procs)
		pass := func(tr *tracer) (*measurement, *rig, error) {
			r, err := w.setUp(seed, half, dir, tr)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			m, err := runPass(r, half, tr)
			if err != nil {
				r.tearDown()
				return nil, nil, fmt.Errorf("%s: %w", w.name, err)
			}
			return m, r, nil
		}
		ref, r, err := pass(nil)
		if err != nil {
			return nil, err
		}
		r.tearDown()
		runtime.GC()

		tr := newTracer(1 << 17)
		m, r, err := pass(tr)
		if err != nil {
			return nil, err
		}
		err = directLayers(r, half, m.layers)
		r.tearDown()
		if err != nil {
			return nil, fmt.Errorf("%s: direct layer measurements: %w", w.name, err)
		}
		if err := tr.writeSpans(filepath.Join(dir, "spans-"+w.name+".jsonl")); err != nil {
			return nil, err
		}
		// Tracing overhead on the workload's headline: answered queries
		// per second where the cores are full, CPU per query elsewhere.
		if w.fast {
			if base := ref.e2e["answered_qps"]; base > 0 {
				m.layers["bench.trace_overhead_frac"] = (base - m.e2e["answered_qps"]) / base
			}
		} else if base := ref.layers["runtime.cpu_us_per_query"]; base > 0 {
			m.layers["bench.trace_overhead_frac"] = (m.layers["runtime.cpu_us_per_query"] - base) / base
		}
		rec.PerLayer = m.layers
		note(ref, "reference")
		note(m, "traced")
	}
	rec.Correct = len(rec.Problems) == 0
	return rec, nil
}

// printRecord prints every metric by name with its unit.
func printRecord(rec *runRecord, env environment) {
	fmt.Printf("== %s  seed %d  (%s, GOMAXPROCS=queriers=shards=%d, %s)\n",
		rec.Workload, rec.Seed, env.Path, env.GOMAXPROCS, env.CPUModel)
	fmt.Printf("   attempted %d  failed %d  correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, p := range rec.Problems {
		fmt.Printf("   PROBLEM %s\n", p)
	}
	show := func(defs []metricDef, values map[string]float64) {
		for _, d := range defs {
			if v, ok := values[d.Name]; ok {
				fmt.Printf("   %-40s %16.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	show(endToEnd, rec.EndToEnd)
	if rec.PerLayer != nil {
		if n := rec.PerLayer["replay.tail_samples"]; n > 0 {
			p, _ := highestSupported(int(n))
			fmt.Printf("   (tails over %d samples; highest percentile with ten samples beyond it: p%g)\n", int(n), p*100)
		}
		show(perLayer, rec.PerLayer)
	}
}

// driverLine is the one-line JSON object a single pass ends with.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine prints the line the driver reads: every metric of
// defs, a layer the workload does not exercise as 0.
func printDriverLine(rec *runRecord, defs []metricDef, values map[string]float64) error {
	line := driverLine{rec.Correct, rec.Attempted, rec.Failed, map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

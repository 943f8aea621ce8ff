package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The agreement tool compares two result files, workload by workload
// and metric by metric, against the bounds BENCHMARK.json fixes. It
// answers "do two sets of runs of one commit agree?" and, given a
// parent's file and a change's, "is any metric worse beyond its bound?".
// Each side's value is the median over that file's runs of the workload.

// benchmarkFile is the part of BENCHMARK.json the tool needs.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// findBenchmarkJSON looks in the working directory and its parent, so
// the tool works from the repository root and from bench/.
func findBenchmarkJSON(path string) (string, error) {
	if path != "" {
		return path, nil
	}
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found; pass -bounds")
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// medians collects, per workload and end-to-end metric, the median over
// the set's runs.
func (s *resultSet) medians() map[string]map[string]float64 {
	byKey := map[string]map[string][]float64{}
	for _, r := range s.Runs {
		if byKey[r.Workload] == nil {
			byKey[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.EndToEnd {
			byKey[r.Workload][name] = append(byKey[r.Workload][name], v)
		}
	}
	out := map[string]map[string]float64{}
	for w, ms := range byKey {
		out[w] = map[string]float64{}
		for name, vs := range ms {
			out[w][name] = median(vs)
		}
	}
	return out
}

// agreeFiles prints one row per workload and metric and reports whether
// every row of B is within its bound of A.
func agreeFiles(out io.Writer, boundsPath, pathA, pathB string) (bool, error) {
	boundsPath, err := findBenchmarkJSON(boundsPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	var a, b resultSet
	for path, v := range map[string]any{boundsPath: &bf, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	ma, mb := a.medians(), b.medians()
	ok := true
	fmt.Fprintf(out, "%-22s %-20s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, w := range sortedKeys(ma) {
		for _, d := range bf.EndToEnd {
			va, inA := ma[w][d.Name]
			vb, inB := mb[w][d.Name]
			if !inA || !inB {
				fmt.Fprintf(out, "%-22s %-20s missing from one file\n", w, d.Name)
				ok = false
				continue
			}
			worse, verdict := worseBy(d, va, vb), "ok"
			if worse > d.Bound {
				verdict, ok = "BREACH", false
			}
			fmt.Fprintf(out, "%-22s %-20s %14.4f %14.4f %8.2f%% %6.1f%% %s\n",
				w, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return ok, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

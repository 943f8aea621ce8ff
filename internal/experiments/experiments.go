// Package experiments contains one driver per table and figure in the
// paper's evaluation (§4) and applications (§5) sections. Each driver
// regenerates the artifact's data at a configurable scale and renders it
// as text rows comparable with the published figure. The cmd/ldp-
// experiments binary and the repository's bench harness both call these.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Scale shrinks experiments to fit the host. The paper's runs used
// hour-long traces at 38 kq/s on a testbed; Tiny keeps every code path
// but runs in seconds on one core.
type Scale struct {
	Name string
	// TraceDuration for model traces (paper: 1 hour).
	TraceDuration time.Duration
	// MedianRate for B-Root-model traces (paper: ~38000 q/s).
	MedianRate float64
	// Clients in model traces (paper: ~1M).
	Clients int
	// LiveRate caps the query rate for real-socket replays.
	LiveRate float64
	// LiveDuration bounds real-socket replay wall time.
	LiveDuration time.Duration
	// Trials for repeated runs (paper: 5).
	Trials int
}

// traceBase is the epoch for synthetic trace timestamps. The replay
// engine schedules events relative to the first event's time, so any
// fixed base works; a constant keeps the generated traces deterministic
// across runs (and keeps wall-clock reads out of trace construction).
var traceBase = time.Unix(1_700_000_000, 0)

// Predefined scales.
var (
	// Tiny is for unit tests and benches: everything in a few seconds.
	Tiny = Scale{
		Name: "tiny", TraceDuration: 60 * time.Second, MedianRate: 400,
		Clients: 200, LiveRate: 200, LiveDuration: 2 * time.Second, Trials: 2,
	}
	// Small is the default for the CLI: minutes, clear statistics.
	Small = Scale{
		Name: "small", TraceDuration: 5 * time.Minute, MedianRate: 1000,
		Clients: 3000, LiveRate: 1000, LiveDuration: 20 * time.Second, Trials: 3,
	}
	// Large approaches the paper's shape where a laptop allows.
	Large = Scale{
		Name: "large", TraceDuration: 20 * time.Minute, MedianRate: 4000,
		Clients: 50000, LiveRate: 4000, LiveDuration: 60 * time.Second, Trials: 5,
	}
)

// Result is one regenerated artifact.
type Result struct {
	ID    string // "table1", "fig6", ...
	Title string
	Rows  []string // formatted output lines
	// Checks are shape assertions against the paper's reported numbers;
	// each carries its outcome so EXPERIMENTS.md can cite them.
	Checks []Check
}

// Check is a shape comparison with the paper.
type Check struct {
	Name     string
	Paper    string // what the paper reports
	Measured string // what this run measured
	Pass     bool
}

func (r *Result) addRow(format string, args ...interface{}) {
	r.Rows = append(r.Rows, fmt.Sprintf(format, args...))
}

func (r *Result) addCheck(name, paper, measured string, pass bool) {
	r.Checks = append(r.Checks, Check{Name: name, Paper: paper, Measured: measured, Pass: pass})
}

// Render formats the result for terminal output.
func (r *Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	for _, row := range r.Rows {
		sb.WriteString(row)
		sb.WriteByte('\n')
	}
	if len(r.Checks) > 0 {
		sb.WriteString("-- shape checks vs paper --\n")
		for _, c := range r.Checks {
			status := "PASS"
			if !c.Pass {
				status = "DIVERGES"
			}
			fmt.Fprintf(&sb, "[%s] %s: paper %s, measured %s\n", status, c.Name, c.Paper, c.Measured)
		}
	}
	return sb.String()
}

// experiment is one entry of the registry.
type experiment struct {
	id    string
	run   func(Scale) (*Result, error)
	paper bool // a table or figure of the paper: All runs it
}

// registry lists every experiment ByID runs: the paper's tables and
// figures in paper order, then this reproduction's own.
var registry = []experiment{
	{"table1", Table1, true},
	{"fig6", Fig6TimingError, true},
	{"fig7", Fig7InterArrivalCDF, true},
	{"fig8", Fig8RateDifference, true},
	{"fig9", Fig9Throughput, true},
	{"fig10", Fig10DNSSECBandwidth, true},
	{"fig11", Fig11CPUUsage, true},
	{"fig13", Fig13TCPFootprint, true},
	{"fig14", Fig14TLSFootprint, true},
	{"fig15a", Fig15aLatencyAllClients, true},
	{"fig15b", Fig15bLatencyNonBusy, true},
	{"fig15c", Fig15cClientLoadCDF, true},
	{"ablation", Ablations, false},
	{"dos", DoSOverload, false},
	{"live-footprint", LiveFootprint, false},
	{"cluster-anycast", ClusterAnycast, false},
}

// IDs lists every id ByID accepts, in registry order.
var IDs = func() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}()

// All runs every table and figure of the paper at the given scale, in
// paper order.
func All(sc Scale) ([]*Result, error) {
	var out []*Result
	for _, e := range registry {
		if !e.paper {
			continue
		}
		res, err := e.run(sc)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.id, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// ByID runs one experiment by identifier.
func ByID(id string, sc Scale) (*Result, error) {
	run := lookup(id)
	if run == nil {
		return nil, fmt.Errorf("experiments: unknown id %q", id)
	}
	return run(sc)
}

// lookup returns the runner registered under id, or nil.
func lookup(id string) func(Scale) (*Result, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run
		}
	}
	return nil
}

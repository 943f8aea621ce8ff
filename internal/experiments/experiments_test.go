package experiments

import (
	"strings"
	"testing"
)

// Every experiment runs at Tiny scale and its shape checks against the
// paper must hold even there — these are the repository's core
// reproduction assertions.

func runExperiment(t *testing.T, id string) *Result {
	t.Helper()
	res, err := ByID(id, Tiny)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("%s: no output rows", id)
	}
	for _, c := range res.Checks {
		if !c.Pass {
			t.Errorf("%s check %q diverges: paper %s, measured %s", id, c.Name, c.Paper, c.Measured)
		}
	}
	if !strings.Contains(res.Render(), res.Title) {
		t.Errorf("%s: render missing title", id)
	}
	return res
}

func TestTable1(t *testing.T) { runExperiment(t, "table1") }
func TestFig6(t *testing.T)   { runExperiment(t, "fig6") }
func TestFig7(t *testing.T)   { runExperiment(t, "fig7") }
func TestFig8(t *testing.T)   { runExperiment(t, "fig8") }
func TestFig9(t *testing.T)   { runExperiment(t, "fig9") }
func TestFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA zone signing is slow")
	}
	runExperiment(t, "fig10")
}
func TestFig11(t *testing.T)  { runExperiment(t, "fig11") }
func TestFig13(t *testing.T)  { runExperiment(t, "fig13") }
func TestFig14(t *testing.T)  { runExperiment(t, "fig14") }
func TestFig15a(t *testing.T) { runExperiment(t, "fig15a") }
func TestFig15b(t *testing.T) { runExperiment(t, "fig15b") }
func TestFig15c(t *testing.T) { runExperiment(t, "fig15c") }
func TestAblations(t *testing.T) {
	res := runExperiment(t, "ablation")
	if len(res.Checks) < 3 {
		t.Errorf("ablations=%d", len(res.Checks))
	}
}

func TestDoSOverload(t *testing.T) { runExperiment(t, "dos") }

func TestLiveFootprint(t *testing.T) { runExperiment(t, "live-footprint") }

func TestClusterAnycast(t *testing.T) {
	res := runExperiment(t, "cluster-anycast")
	// The k=1 identity pin must be among the checks — it is what keeps
	// the Fig 13/14 single-server path and the cluster engine fused.
	found := false
	for _, c := range res.Checks {
		if strings.Contains(c.Name, "byte-identical") {
			found = true
		}
	}
	if !found {
		t.Error("cluster-anycast missing the k=1 identity check")
	}
}

func TestClusterAnycastExplicitSites(t *testing.T) {
	res, err := ClusterAnycastSites(Tiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		if !c.Pass {
			t.Errorf("check %q diverges: paper %s, measured %s", c.Name, c.Paper, c.Measured)
		}
	}
	if !strings.Contains(res.Title, "k up to 3") {
		t.Errorf("title %q does not reflect -sites 3", res.Title)
	}
}

// TestRegistry: every id the CLI's help lists resolves to one registry
// entry, and All runs exactly the paper's tables and figures, in paper
// order.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range IDs {
		if seen[id] {
			t.Errorf("id %q listed twice", id)
		}
		seen[id] = true
		if lookup(id) == nil {
			t.Errorf("listed id %q does not resolve", id)
		}
	}
	if len(IDs) != len(registry) {
		t.Errorf("%d ids listed, %d registered", len(IDs), len(registry))
	}
	var paper []string
	for _, e := range registry {
		if e.paper {
			paper = append(paper, e.id)
		}
	}
	want := "table1 fig6 fig7 fig8 fig9 fig10 fig11 fig13 fig14 fig15a fig15b fig15c"
	if got := strings.Join(paper, " "); got != want {
		t.Errorf("All runs %q, want %q", got, want)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99", Tiny); err == nil {
		t.Error("unknown id accepted")
	}
}

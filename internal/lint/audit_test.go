package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestNolintAudit drives the suppression audits over a fixture with a
// live suppression, a stale one, a misspelled check name, and an
// unseparated justification.
func TestNolintAudit(t *testing.T) {
	l := loader(t)
	p, err := l.CheckDir(filepath.Join("testdata", "src", "nolintaudit"), l.ModulePath+"/internal/audittest")
	if err != nil {
		t.Fatalf("CheckDir: %v", err)
	}
	diags := Run([]*Package{p}, DefaultCheckers(l.ModulePath), true)

	byCheck := map[string][]Diagnostic{}
	for _, d := range diags {
		byCheck[d.Check] = append(byCheck[d.Check], d)
	}

	// Exactly one stale entry: the suppression whose finding is gone.
	if got := byCheck["stale"]; len(got) != 1 {
		t.Fatalf("stale diagnostics = %v, want exactly 1", got)
	} else if !strings.Contains(got[0].Message, "//ldp:nolint errcheck") {
		t.Errorf("stale message = %q, want it to name the errcheck entry", got[0].Message)
	}

	// The misspelled name plus the four run-on justification words are
	// all unknown checks.
	wantUnknown := []string{"errchek", "fixture", "justification", "without", "separator"}
	if got := byCheck["nolint"]; len(got) != len(wantUnknown) {
		t.Fatalf("nolint diagnostics = %v, want %d (for %v)", got, len(wantUnknown), wantUnknown)
	}
	for _, name := range wantUnknown {
		found := false
		for _, d := range byCheck["nolint"] {
			if strings.Contains(d.Message, `"`+name+`"`) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no unknown-check diagnostic for %q", name)
		}
	}

	// The misspelled suppression does not cover the finding: errcheck
	// fires once (typo site only — the used and unseparated sites both
	// name errcheck first and stay suppressed).
	if got := byCheck["errcheck"]; len(got) != 1 {
		t.Fatalf("errcheck diagnostics = %v, want exactly 1 (typo site unsuppressed)", got)
	}

	// Without stale, the audit reports only unknown names.
	noStale := Run([]*Package{p}, DefaultCheckers(l.ModulePath), false)
	for _, d := range noStale {
		if d.Check == "stale" {
			t.Errorf("stale diagnostic without the stale audit: %s", d)
		}
	}
}

// TestSARIFOutput structurally validates the -sarif encoding against
// the SARIF 2.1.0 shape code scanning requires: version/schema, a
// single run with a named driver and rules table, and results whose
// ruleIndex resolves to their ruleId with module-relative locations.
func TestSARIFOutput(t *testing.T) {
	diags := []Diagnostic{
		{Pos: token.Position{Filename: "/mod/internal/a/a.go", Line: 10, Column: 3}, Check: "errcheck", Message: "dropped error"},
		{Pos: token.Position{Filename: "/mod/internal/b/b.go", Line: 4, Column: 1}, Check: "stale", Message: "dead suppression"},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, diags, DefaultCheckers("m"), "/mod"); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version/schema = %q/%q, want 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "ldp-vet" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) == 0 {
		t.Fatal("rules table is empty")
	}
	for _, r := range run.Tool.Driver.Rules {
		if r.ID == "" || r.ShortDescription.Text == "" {
			t.Errorf("rule %+v missing id or shortDescription", r)
		}
	}
	if len(run.Results) != len(diags) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(diags))
	}
	for i, res := range run.Results {
		if res.RuleIndex < 0 || res.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Errorf("result %d ruleIndex %d out of range", i, res.RuleIndex)
			continue
		}
		if got := run.Tool.Driver.Rules[res.RuleIndex].ID; got != res.RuleID {
			t.Errorf("result %d ruleIndex resolves to %q, ruleId says %q", i, got, res.RuleID)
		}
		if res.Message.Text == "" || len(res.Locations) != 1 {
			t.Errorf("result %d missing message or location", i)
			continue
		}
		loc := res.Locations[0].PhysicalLocation
		if strings.HasPrefix(loc.ArtifactLocation.URI, "/") {
			t.Errorf("result %d URI %q not relativized", i, loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine != diags[i].Pos.Line {
			t.Errorf("result %d startLine = %d, want %d", i, loc.Region.StartLine, diags[i].Pos.Line)
		}
	}
	if run.Results[0].Level != "error" || run.Results[1].Level != "warning" {
		t.Errorf("levels = %q/%q, want error for checker findings and warning for stale",
			run.Results[0].Level, run.Results[1].Level)
	}
}

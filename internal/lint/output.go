package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// SARIF 2.1.0 output for ldp-vet -sarif: CI uploads it for code
// scanning, so findings annotate pull requests inline.

// SARIF 2.1.0 structures — only the subset ldp-vet emits, shaped to
// validate against https://json.schemastore.org/sarif-2.1.0.json.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// sarifMetaRules documents the framework-level diagnostics Run can
// emit alongside the checker findings.
var sarifMetaRules = []sarifRule{
	{ID: "nolint", ShortDescription: sarifMessage{Text: "//ldp:nolint comments must name checks that exist"}},
	{ID: "stale", ShortDescription: sarifMessage{Text: "//ldp:nolint comments must still suppress a finding"}},
}

// WriteSARIF writes diagnostics as a single-run SARIF 2.1.0 log. The
// rules table is built from the registered checkers plus the
// framework's own nolint/stale rules; file paths are relativized
// against rootDir so code-scanning upload can anchor annotations.
func WriteSARIF(w io.Writer, diags []Diagnostic, checkers []Checker, rootDir string) error {
	var rules []sarifRule
	index := map[string]int{}
	for _, c := range checkers {
		index[c.Name()] = len(rules)
		rules = append(rules, sarifRule{
			ID:               c.Name(),
			ShortDescription: sarifMessage{Text: c.Doc()},
		})
	}
	for _, r := range sarifMetaRules {
		if _, ok := index[r.ID]; !ok {
			index[r.ID] = len(rules)
			rules = append(rules, r)
		}
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		idx, ok := index[d.Check]
		if !ok { // a diagnostic from an unregistered check: add its rule
			idx = len(rules)
			index[d.Check] = idx
			rules = append(rules, sarifRule{ID: d.Check, ShortDescription: sarifMessage{Text: d.Check}})
		}
		level := "error"
		if d.Check == "stale" {
			level = "warning"
		}
		results = append(results, sarifResult{
			RuleID:    d.Check,
			RuleIndex: idx,
			Level:     level,
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: relPath(d.Pos.Filename, rootDir)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "ldp-vet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath relativizes an absolute diagnostic path against root,
// normalized to forward slashes; paths outside root pass through
// unchanged.
func relPath(path, root string) string {
	if root == "" {
		return filepath.ToSlash(path)
	}
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}

// Command ldp-vet runs LDplayer's project-specific static-analysis
// suite (internal/lint) over the module: the invariants that neither
// the compiler, go vet, the race detector nor a test holds —
// deterministic simulation hygiene (simclock), no silently dropped
// errors (errcheck), no mutexes held across blocking I/O (mutexblock)
// and shard confinement (shardconfined). The invariants a type or a
// test can hold live there instead; DESIGN.md "Static analysis &
// fuzzing" lists which mutant each check alone catches.
//
// Usage:
//
//	ldp-vet [-dir .] [-checks name,name] [-list] [-sarif] [-stale]
//
// -sarif emits SARIF 2.1.0 for code-scanning upload. -stale
// additionally flags //ldp:nolint comments that no longer suppress any
// finding, so suppressions cannot rot; it requires the full checker set
// (no -checks).
//
// Exit status is 0 when the tree is clean, 1 when any diagnostic fires,
// 2 on usage or load errors. Suppress an individual finding with
//
//	//ldp:nolint <check> — <justification>
//
// on (or directly above) the offending line. Nolint comments naming a
// check that does not exist are themselves reported (check "nolint").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ldplayer/internal/lint"
)

func main() {
	dir := flag.String("dir", ".", "module directory to analyze")
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list available checks and exit")
	sarifOut := flag.Bool("sarif", false, "report diagnostics as SARIF 2.1.0")
	stale := flag.Bool("stale", false, "also flag //ldp:nolint comments that suppress nothing (requires the full checker set)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: ldp-vet [-dir .] [-checks name,name] [-list] [-sarif] [-stale]")
		os.Exit(2)
	}
	if *stale && *checks != "" {
		// A suppression that does not fire under a subset may belong to
		// a skipped checker; the audit is only sound over the full set.
		fmt.Fprintln(os.Stderr, "ldp-vet: -stale requires the full checker set (drop -checks)")
		os.Exit(2)
	}

	loader, err := lint.NewLoader(*dir)
	if err != nil && *list {
		// -list should work even outside a module; fall back to the
		// project module path for documentation purposes.
		loader = nil
	} else if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	modPath := "ldplayer"
	if loader != nil {
		modPath = loader.ModulePath
	}
	checkers := lint.DefaultCheckers(modPath)

	if *list {
		for _, c := range checkers {
			fmt.Printf("%-15s %s\n", c.Name(), c.Doc())
		}
		return
	}

	if *checks != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*checks, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var selected []lint.Checker
		for _, c := range checkers {
			if want[c.Name()] {
				selected = append(selected, c)
				delete(want, c.Name())
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "ldp-vet: unknown check %q (see -list)\n", name)
			os.Exit(2)
		}
		checkers = selected
	}

	pkgs, err := loader.Load()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, checkers, *stale)

	if *sarifOut {
		if err := lint.WriteSARIF(os.Stdout, diags, checkers, loader.ModuleDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ldp-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

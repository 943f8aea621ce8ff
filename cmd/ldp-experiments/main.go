// Command ldp-experiments regenerates the paper's tables and figures
// (see DESIGN.md's experiment index and EXPERIMENTS.md for expected
// output).
//
// Usage:
//
//	ldp-experiments -run all -scale small
//	ldp-experiments -run fig10
//	ldp-experiments -run ablation -scale tiny
//	ldp-experiments cluster-anycast -sites 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"ldplayer/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldp-experiments: ")

	run := flag.String("run", "all", "experiment id ("+strings.Join(experiments.IDs, ", ")+") or 'all'")
	scaleName := flag.String("scale", "small", "tiny | small | large")
	sites := flag.Int("sites", 0, "site count k for cluster-anycast (0 sweeps k=1,2,4,8)")
	// Accept the experiment id as a leading positional argument too
	// (`ldp-experiments cluster-anycast -sites 4`): flag parsing stops at
	// the first non-flag, so peel it off before parsing.
	args := os.Args[1:]
	posRun := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		posRun, args = args[0], args[1:]
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		log.Fatal(err) // unreachable: CommandLine is ExitOnError
	}
	runID := *run
	if posRun != "" {
		runID = posRun
	}

	var sc experiments.Scale
	switch *scaleName {
	case "tiny":
		sc = experiments.Tiny
	case "small":
		sc = experiments.Small
	case "large":
		sc = experiments.Large
	default:
		log.Fatalf("unknown scale %q", *scaleName)
	}

	start := time.Now()
	var results []*experiments.Result
	var err error
	if runID == "all" {
		results, err = experiments.All(sc)
	} else {
		var res *experiments.Result
		if runID == "cluster-anycast" && *sites > 0 {
			res, err = experiments.ClusterAnycastSites(sc, *sites)
		} else {
			res, err = experiments.ByID(runID, sc)
		}
		if res != nil {
			results = []*experiments.Result{res}
		}
	}
	for _, res := range results {
		fmt.Println(res.Render())
	}
	if err != nil {
		log.Fatal(err)
	}

	failed := 0
	total := 0
	for _, res := range results {
		for _, c := range res.Checks {
			total++
			if !c.Pass {
				failed++
			}
		}
	}
	fmt.Printf("%s\n", strings.Repeat("=", 60))
	fmt.Printf("scale=%s elapsed=%v shape checks: %d/%d pass\n",
		sc.Name, time.Since(start).Round(time.Second), total-failed, total)
	if failed > 0 {
		os.Exit(1)
	}
}

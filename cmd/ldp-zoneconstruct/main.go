// Command ldp-zoneconstruct rebuilds DNS zones from a captured trace
// (paper §2.3): it scans the responses in a pcap or trace file, reverses
// them into per-origin zone files, synthesizes the records a valid zone
// needs (SOA, apex NS), and writes one master file per zone plus an
// addressing manifest for the hierarchy emulation.
//
// Usage:
//
//	ldp-zoneconstruct -input capture.pcap -out zones/
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"ldplayer/internal/pcap"
	"ldplayer/internal/zoneconstruct"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldp-zoneconstruct: ")

	input := flag.String("input", "", "trace file with responses (.pcap, .txt, .ldpb)")
	out := flag.String("out", "zones", "output directory for zone files")
	flag.Parse()
	if *input == "" {
		log.Fatal("-input is required")
	}

	r, f, err := pcap.OpenTrace(*input)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	c := zoneconstruct.New()
	events, responses := 0, 0
	for {
		ev, err := r.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			log.Fatal(err)
		}
		events++
		if !ev.IsQuery() {
			responses++
		}
		if err := c.AddEvent(ev); err != nil {
			log.Printf("skipping event %d: %v", events, err)
		}
	}
	log.Printf("scanned %d events (%d responses)", events, responses)

	res, err := c.Build(nil)
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Origins) == 0 {
		log.Fatal("no zones reconstructable: the trace has no responses")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	var manifest strings.Builder
	manifest.WriteString("# origin\tnameserver-address\tzone-file\n")
	for _, origin := range res.Origins {
		z := res.Zones[origin]
		name := strings.TrimSuffix(string(origin), ".")
		if name == "" {
			name = "root"
		}
		path := filepath.Join(*out, name+".zone")
		zf, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := z.WriteTo(zf); err != nil {
			log.Fatal(err)
		}
		if err := zf.Close(); err != nil {
			log.Fatal(err)
		}
		addr := "-"
		if a, ok := res.NSAddr[origin]; ok {
			addr = a.String()
		}
		fmt.Fprintf(&manifest, "%s\t%s\t%s\n", origin, addr, path)
		log.Printf("wrote %s (%d records)", path, z.RecordCount())
	}
	manifestPath := filepath.Join(*out, "MANIFEST.tsv")
	if err := os.WriteFile(manifestPath, []byte(manifest.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", manifestPath)
	if len(res.SynthesizedSOA) > 0 {
		log.Printf("synthesized SOA for: %v", res.SynthesizedSOA)
	}
	if len(res.FetchedNS) > 0 {
		log.Printf("recovered NS for: %v", res.FetchedNS)
	}
}

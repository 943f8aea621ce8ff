// Command ldp-trace converts, generates, mutates and summarizes DNS
// traces — the query-mutator pipeline of the paper's Fig 3.
//
// Subcommands:
//
//	convert  -in a.pcap -out b.txt        convert between formats
//	mutate   -in a.ldpb -out b.ldpb -force-protocol tcp -do 1.0
//	gen      -model broot -duration 60s -rate 1000 -out trace.ldpb
//	stat     -in trace.ldpb               print Table-1-style statistics
//
// Formats by extension (pcap.FormatOf): .pcap (network trace), .txt
// (plain text), .ldpb or none (internal binary).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ldplayer/internal/mutate"
	"ldplayer/internal/pcap"
	"ldplayer/internal/trace"
	"ldplayer/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldp-trace: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "convert":
		cmdConvert(os.Args[2:])
	case "mutate":
		cmdMutate(os.Args[2:])
	case "gen":
		cmdGen(os.Args[2:])
	case "stat":
		cmdStat(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ldp-trace {convert|mutate|gen|stat} [flags]")
	os.Exit(2)
}

func openReader(path string) trace.Reader {
	r, _, err := pcap.OpenTrace(path) // read to the end; the process exit closes it
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func openWriter(path string) (trace.Writer, func()) {
	format, err := pcap.FormatOf(path)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w := format.NewWriter(f)
	return w, func() {
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

func pump(r trace.Reader, w trace.Writer) int {
	n := 0
	for {
		ev, err := r.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return n
			}
			log.Fatal(err)
		}
		if err := w.Write(ev); err != nil {
			log.Fatal(err)
		}
		n++
	}
}

func cmdConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input trace")
	out := fs.String("out", "", "output trace")
	fs.Parse(args) //ldp:nolint errcheck — flag.ExitOnError exits on error, Parse never returns one
	if *in == "" || *out == "" {
		log.Fatal("convert needs -in and -out")
	}
	w, closeW := openWriter(*out)
	n := pump(openReader(*in), w)
	closeW()
	log.Printf("converted %d events: %s -> %s", n, *in, *out)
}

func cmdMutate(args []string) {
	fs := flag.NewFlagSet("mutate", flag.ExitOnError)
	in := fs.String("in", "", "input trace")
	out := fs.String("out", "", "output trace")
	forceProto := fs.String("force-protocol", "", "udp|tcp|tls")
	doFrac := fs.Float64("do", -1, "DNSSEC-OK fraction (0..1)")
	prefix := fs.String("prefix", "", "query-name prefix for replay matching")
	queriesOnly := fs.Bool("queries-only", false, "drop responses")
	scale := fs.Float64("scale-time", 0, "timeline scale factor (0.5 = 2x faster)")
	fs.Parse(args) //ldp:nolint errcheck — flag.ExitOnError exits on error, Parse never returns one
	if *in == "" || *out == "" {
		log.Fatal("mutate needs -in and -out")
	}
	var chain mutate.Chain
	if *queriesOnly {
		chain = append(chain, mutate.QueriesOnly())
	}
	if *forceProto != "" {
		p, err := trace.ProtoFromString(*forceProto)
		if err != nil {
			log.Fatal(err)
		}
		chain = append(chain, mutate.ForceProtocol(p))
	}
	if *doFrac >= 0 {
		chain = append(chain, mutate.SetDO(*doFrac, 4096))
	}
	if *prefix != "" {
		chain = append(chain, mutate.PrefixQNames(*prefix))
	}
	if *scale > 0 {
		chain = append(chain, mutate.ScaleTime(*scale))
	}
	if len(chain) == 0 {
		log.Fatal("no mutations requested")
	}
	w, closeW := openWriter(*out)
	n := pump(mutate.NewReader(openReader(*in), chain), w)
	closeW()
	log.Printf("mutated %d events: %s -> %s", n, *in, *out)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	model := fs.String("model", "broot", "broot | rec | synthetic")
	out := fs.String("out", "", "output trace")
	duration := fs.Duration("duration", time.Minute, "trace duration")
	rate := fs.Float64("rate", 1000, "median query rate (broot)")
	clients := fs.Int("clients", 2000, "client population")
	inter := fs.Duration("interval", 10*time.Millisecond, "inter-arrival (synthetic)")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args) //ldp:nolint errcheck — flag.ExitOnError exits on error, Parse never returns one
	if *out == "" {
		log.Fatal("gen needs -out")
	}
	var tr *trace.Trace
	switch *model {
	case "broot":
		tr = workload.BRootModel(workload.BRootConfig{
			Duration: *duration, MedianRate: *rate, Clients: *clients, Seed: *seed,
		})
	case "rec":
		tr = workload.RecModel(workload.RecConfig{
			Duration: *duration, Queries: int(*rate * duration.Seconds()), Clients: *clients, Seed: *seed,
		})
	case "synthetic":
		tr = workload.Synthetic(workload.SyntheticConfig{
			InterArrival: *inter, Duration: *duration, Clients: *clients, Seed: *seed,
		})
	default:
		log.Fatalf("unknown model %q", *model)
	}
	w, closeW := openWriter(*out)
	if err := trace.WriteAll(w, tr); err != nil {
		log.Fatal(err)
	}
	closeW()
	log.Printf("generated %d events -> %s", len(tr.Events), *out)
}

func cmdStat(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("in", "", "input trace")
	fs.Parse(args) //ldp:nolint errcheck — flag.ExitOnError exits on error, Parse never returns one
	if *in == "" {
		log.Fatal("stat needs -in")
	}
	tr, err := trace.ReadAll(openReader(*in))
	if err != nil {
		log.Fatal(err)
	}
	s := tr.ComputeStats()
	fmt.Printf("records:        %d (%d queries, %d responses)\n", s.Records, s.Queries, s.Responses)
	fmt.Printf("clients:        %d\n", s.Clients)
	fmt.Printf("unique qnames:  %d\n", s.UniqueQNames)
	fmt.Printf("duration:       %v\n", s.Duration)
	fmt.Printf("inter-arrival:  %.6f s (sd %.6f)\n", s.InterArrival.Seconds(), s.InterArrSD.Seconds())
	fmt.Printf("DO queries:     %d (%.1f%%)\n", s.DOQueries, pct(s.DOQueries, s.Queries))
	fmt.Printf("bytes:          %d\n", s.BytesTotal)
	for _, p := range []trace.Proto{trace.UDP, trace.TCP, trace.TLS} {
		if c := s.ProtoCounts[p]; c > 0 {
			fmt.Printf("  %s: %d (%.1f%%)\n", p, c, pct(c, s.Records))
		}
	}
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

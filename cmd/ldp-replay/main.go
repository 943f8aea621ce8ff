// Command ldp-replay is LDplayer's distributed replay client (paper §2.6
// and Fig 4). It runs in one of three roles:
//
//	standalone  — read a trace and replay it from this host, the
//	              controller feeding -queriers queriers directly:
//	              ldp-replay -input trace.ldpb -target 127.0.0.1:5300
//	controller  — stream a trace to remote clients, the paper's
//	              distributors:
//	              ldp-replay -role controller -input trace.ldpb -listen :9053 -clients 2
//	client      — receive from a controller and replay locally on
//	              -queriers queriers:
//	              ldp-replay -role client -controller ctrl:9053 -target ns:53
//
// Input files are detected by extension: .pcap, .txt (plain text), or
// .ldpb (internal binary). Mutations apply in-line during replay.
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"log"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"ldplayer/internal/mutate"
	"ldplayer/internal/obs"
	"ldplayer/internal/pcap"
	"ldplayer/internal/replay"
	"ldplayer/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldp-replay: ")

	role := flag.String("role", "standalone", "standalone | controller | client")
	input := flag.String("input", "", "trace file (.pcap, .txt, .ldpb)")
	target := flag.String("target", "", "DNS server to replay against (host:port)")
	listen := flag.String("listen", ":9053", "controller listen address")
	controller := flag.String("controller", "", "controller address (client role)")
	clients := flag.Int("clients", 1, "distributor clients the controller waits for")
	queriers := flag.Int("queriers", 4, "queriers on this host (one goroutine and UDP socket each)")
	fast := flag.Bool("fast", false, "replay as fast as possible (ignore trace timing)")
	batch := flag.Int("batch", 0, "queries per controller read, handed out as one batch per querier (0 = default 32)")
	dropResults := flag.Bool("drop-results", false, "skip per-query result records (counters only; saves memory at high qps)")
	connTimeout := flag.Duration("conn-timeout", 20*time.Second, "TCP/TLS connection reuse timeout")
	forceProto := flag.String("force-protocol", "", "mutate all queries to udp|tcp|tls")
	doFrac := flag.Float64("do", -1, "mutate the DNSSEC-OK fraction (0..1; -1 keeps original)")
	prefix := flag.String("prefix", "", "prefix query names for replay matching")
	tlsInsecure := flag.Bool("tls-insecure", false, "accept any server certificate for DNS-over-TLS")
	debugAddr := flag.String("debug-addr", "", "HTTP debug endpoint with /vars and /debug/pprof (empty disables)")
	statsEvery := flag.Duration("stats", 0, "log live replay counters at this interval (0 disables)")
	flag.Parse()

	if *debugAddr != "" {
		_, addr, err := obs.ServeDebug(*debugAddr, obs.Default)
		if err != nil {
			log.Fatalf("debug listen: %v", err)
		}
		log.Printf("debug http on %s (/vars, /debug/pprof)", addr)
	}
	if *statsEvery > 0 {
		go obs.Every(context.Background(), obs.Default, *statsEvery, func(s obs.Snapshot) {
			log.Printf("sent=%d responses=%d timeouts=%d errs=%d trace_offset=%.1fs wall_offset=%.1fs",
				s.Counters["replay.sent"], s.Counters["replay.responses"],
				s.Counters["replay.timeouts"], s.Counters["replay.send_errors"],
				s.Gauges["replay.trace_offset_seconds"], s.Gauges["replay.wall_offset_seconds"])
		})
	}

	opts := engineOpts{
		fast:        *fast,
		batch:       *batch,
		dropResults: *dropResults,
		connTimeout: *connTimeout,
		tlsInsecure: *tlsInsecure,
	}
	switch *role {
	case "standalone":
		runStandalone(*input, *target, *queriers, opts,
			*forceProto, *doFrac, *prefix)
	case "controller":
		runController(*input, *listen, *clients, *forceProto, *doFrac, *prefix)
	case "client":
		runClient(*controller, *target, *queriers, opts)
	default:
		log.Fatalf("unknown role %q", *role)
	}
}

// engineOpts carries the data-plane tuning flags to engineConfig.
type engineOpts struct {
	fast        bool
	batch       int
	dropResults bool
	connTimeout time.Duration
	tlsInsecure bool
}

func openTrace(path string) trace.Reader {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("open input: %v", err)
	}
	switch filepath.Ext(path) {
	case ".pcap":
		r, err := pcap.NewDNSReader(f)
		if err != nil {
			log.Fatalf("pcap: %v", err)
		}
		return r
	case ".txt":
		return trace.NewTextReader(f)
	case ".ldpb", "":
		return trace.NewBinaryReader(f)
	default:
		log.Fatalf("unknown trace extension %q", filepath.Ext(path))
		return nil
	}
}

func buildMutator(forceProto string, doFrac float64, prefix string) mutate.Mutator {
	chain := mutate.Chain{mutate.QueriesOnly()}
	if forceProto != "" {
		p, err := trace.ProtoFromString(forceProto)
		if err != nil {
			log.Fatal(err)
		}
		chain = append(chain, mutate.ForceProtocol(p))
	}
	if doFrac >= 0 {
		chain = append(chain, mutate.SetDO(doFrac, 4096))
	}
	if prefix != "" {
		chain = append(chain, mutate.PrefixQNames(prefix))
	}
	return chain
}

func engineConfig(target string, queriers int, o engineOpts) replay.Config {
	ap, err := netip.ParseAddrPort(target)
	if err != nil {
		log.Fatalf("bad -target %q: %v", target, err)
	}
	cfg := replay.Config{
		Server:                 ap,
		QueriersPerDistributor: queriers,
		ConnIdleTimeout:        o.connTimeout,
		BatchSize:              o.batch,
		DropResults:            o.dropResults,
		Obs:                    obs.Default,
	}
	if o.fast {
		cfg.Mode = replay.FastAsPossible
	}
	if o.tlsInsecure {
		cfg.TLSConfig = &tls.Config{InsecureSkipVerify: true}
	}
	return cfg
}

func runStandalone(input, target string, queriers int, opts engineOpts,
	forceProto string, doFrac float64, prefix string) {
	if input == "" || target == "" {
		log.Fatal("standalone role needs -input and -target")
	}
	src := mutate.NewReader(openTrace(input), buildMutator(forceProto, doFrac, prefix))
	eng, err := replay.New(engineConfig(target, queriers, opts))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), src)
	if err != nil {
		log.Fatal(err)
	}
	printReport(rep)
}

func runController(input, listen string, clients int, forceProto string, doFrac float64, prefix string) {
	if input == "" {
		log.Fatal("controller role needs -input")
	}
	// Control-plane socket: distributors stream trace events here, no DNS
	// traffic.
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("controller on %s, waiting for %d client(s)", ln.Addr(), clients)
	src := mutate.NewReader(openTrace(input), buildMutator(forceProto, doFrac, prefix))
	if err := replay.ServeController(context.Background(), ln, src, clients); err != nil {
		log.Fatal(err)
	}
	log.Print("stream complete")
}

func runClient(controller, target string, queriers int, opts engineOpts) {
	if controller == "" || target == "" {
		log.Fatal("client role needs -controller and -target")
	}
	cfg := engineConfig(target, queriers, opts)
	rep, err := replay.RunRemoteClient(context.Background(), controller, cfg)
	if err != nil {
		log.Fatal(err)
	}
	printReport(rep)
}

func printReport(rep *replay.Report) {
	fmt.Printf("sent:        %d queries (%d bytes)\n", rep.Sent, rep.BytesSent)
	fmt.Printf("responses:   %d (%d timed out)\n", rep.Responses, rep.Timeouts)
	fmt.Printf("send errors: %d\n", rep.SendErrs)
	fmt.Printf("connections: %d opened\n", rep.ConnsOpened)
	fmt.Printf("duration:    %v", rep.Duration)
	if rep.Duration > 0 {
		fmt.Printf("  (%.0f q/s)", float64(rep.Sent)/rep.Duration.Seconds())
	}
	fmt.Println()
	if len(rep.Results) > 0 {
		var worst time.Duration
		var count int
		for _, r := range rep.Results {
			d := r.SentOffset - r.TraceOffset
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
			if r.RTT >= 0 {
				count++
			}
		}
		fmt.Printf("timing:      worst send-time error %v; %d RTTs measured\n", worst, count)
	}
}

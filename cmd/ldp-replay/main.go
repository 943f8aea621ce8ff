// Command ldp-replay is LDplayer's distributed replay client (paper §2.6
// and Fig 4) and its load generator. It runs in one of three roles:
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
// A standalone run with -conc or -qps is a load run, the paper's load
// test with trace timing turned off (Figs 9, 13): the input's UDP
// queries cycle through a replay.Source until -count queries are sent
// or -duration has passed. Without -qps it is a closed loop that keeps
// -conc queries outstanding on the FastAsPossible plane, so it measures
// the server's service rate; -timeout also writes off a window that
// stalls that long. With -qps it is an open loop that sends at that
// aggregate rate from -conc sources (default one per querier) whether
// or not responses return. Query models come from ldp-trace gen:
//
//	ldp-trace gen -model synthetic -interval 1ms -duration 10s -out syn.ldpb
//	ldp-replay -input syn.ldpb -target 127.0.0.1:5300 -conc 8 -duration 10s
//	ldp-replay -input syn.ldpb -target 127.0.0.1:5300 -qps 50000 -duration 30s
//
// Input files are read by their extension (pcap.FormatOf): .pcap, .txt
// (plain text), .ldpb or none (internal binary). Mutations apply in-line
// during replay.
package main

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"time"

	"ldplayer/internal/metrics"
	"ldplayer/internal/mutate"
	"ldplayer/internal/obs"
	"ldplayer/internal/pcap"
	"ldplayer/internal/replay"
	"ldplayer/internal/trace"
)

type options struct {
	role, input, target string
	listen, controller  string
	clients, queriers   int
	fast                bool
	batch               int
	dropResults         bool
	connTimeout         time.Duration
	timeout             time.Duration
	forceProto          string
	doFrac              float64
	prefix              string
	tlsInsecure         bool
	debugAddr           string
	statsEvery          time.Duration

	// A load run: -conc or -qps selects it, -count or -duration ends it.
	conc     int
	qps      float64
	count    int
	duration time.Duration

	reg *obs.Registry // nil: a registry of the run's own
}

// bindFlags registers the command's flags on fs, with their defaults.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.role, "role", "standalone", "standalone | controller | client")
	fs.StringVar(&o.input, "input", "", "trace file (.pcap, .txt, .ldpb)")
	fs.StringVar(&o.target, "target", "", "DNS server to replay against (host:port)")
	fs.StringVar(&o.listen, "listen", ":9053", "controller listen address")
	fs.StringVar(&o.controller, "controller", "", "controller address (client role)")
	fs.IntVar(&o.clients, "clients", 1, "distributor clients the controller waits for")
	fs.IntVar(&o.queriers, "queriers", 4, "queriers on this host (one goroutine and UDP socket each)")
	fs.BoolVar(&o.fast, "fast", false, "replay as fast as possible (ignore trace timing)")
	fs.IntVar(&o.batch, "batch", 0, "queries per controller read, handed out as one batch per querier (0 = default 32)")
	fs.BoolVar(&o.dropResults, "drop-results", false, "skip per-query result records (counters only; saves memory at high qps)")
	fs.DurationVar(&o.connTimeout, "conn-timeout", 0, "TCP/TLS connection reuse timeout (0 = default 20s)")
	fs.DurationVar(&o.timeout, "timeout", 2*time.Second, "response timeout, and the stall that writes off a load run's window")
	fs.StringVar(&o.forceProto, "force-protocol", "", "mutate all queries to udp|tcp|tls")
	fs.Float64Var(&o.doFrac, "do", -1, "mutate the DNSSEC-OK fraction (0..1; -1 keeps original)")
	fs.StringVar(&o.prefix, "prefix", "", "prefix query names for replay matching")
	fs.BoolVar(&o.tlsInsecure, "tls-insecure", false, "accept any server certificate for DNS-over-TLS")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "HTTP debug endpoint with /vars and /debug/pprof (empty disables)")
	fs.DurationVar(&o.statsEvery, "stats", 0, "log live replay counters at this interval (0 disables)")
	fs.IntVar(&o.conc, "conc", 0, "load run: queries kept outstanding, or with -qps the source addresses (0 = trace replay)")
	fs.Float64Var(&o.qps, "qps", 0, "load run: open-loop aggregate send rate (0 = closed loop, or trace replay)")
	fs.IntVar(&o.count, "count", 0, "load run: stop after this many queries (0 = until -duration)")
	fs.DurationVar(&o.duration, "duration", 0, "load run: stop after this long (0 = until -count)")
	return o
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldp-replay: ")
	opts := bindFlags(flag.CommandLine)
	flag.Parse()
	opts.reg = obs.Default

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *opts, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one role and writes its report to out.
func run(ctx context.Context, o options, out io.Writer) error {
	if err := o.validate(); err != nil {
		return err
	}
	if o.reg == nil {
		o.reg = obs.NewRegistry()
	}
	if o.debugAddr != "" {
		_, addr, err := obs.ServeDebug(o.debugAddr, o.reg)
		if err != nil {
			return fmt.Errorf("debug listen: %w", err)
		}
		log.Printf("debug http on %s (/vars, /debug/pprof)", addr)
	}
	if o.statsEvery > 0 {
		statsCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		go obs.Every(statsCtx, o.reg, o.statsEvery, func(s obs.Snapshot) {
			log.Printf("sent=%d responses=%d timeouts=%d errs=%d trace_offset=%.1fs wall_offset=%.1fs",
				s.Counters["replay.sent"], s.Counters["replay.responses"],
				s.Counters["replay.timeouts"], s.Counters["replay.send_errors"],
				s.Gauges["replay.trace_offset_seconds"], s.Gauges["replay.wall_offset_seconds"])
		})
	}
	switch o.role {
	case "controller":
		return runController(ctx, o)
	case "client":
		return runClient(ctx, o, out)
	default:
		return runStandalone(ctx, o, out)
	}
}

// loadRun reports whether the flags select a cyclic load run.
func (o options) loadRun() bool { return o.conc > 0 || o.qps > 0 }

// validate rejects an unknown role and any flag that the run the other
// flags select could not apply, rather than ignore it.
func (o options) validate() error {
	loadFlags := o.loadRun() || o.count > 0 || o.duration > 0
	switch {
	case o.role != "standalone" && o.role != "controller" && o.role != "client":
		return fmt.Errorf("unknown role %q", o.role)
	case o.timeout <= 0:
		return errors.New("-timeout must be positive")
	case o.conc < 0 || o.qps < 0 || o.count < 0 || o.duration < 0:
		return errors.New("-conc, -qps, -count and -duration must not be negative")
	case !loadFlags:
		return nil
	case o.role != "standalone":
		return errors.New("-conc, -qps, -count and -duration make a load run, which only the standalone role runs")
	case !o.loadRun():
		return errors.New("-count and -duration bound a load run: add -conc or -qps")
	case o.count == 0 && o.duration == 0:
		return errors.New("a load run needs -count or -duration")
	case o.fast:
		return errors.New("-fast does not apply to a load run: -qps sets its pace, and without -qps it goes as fast as -conc allows")
	case o.forceProto != "" && o.forceProto != "udp":
		return fmt.Errorf("-force-protocol %s: a load run sends UDP only", o.forceProto)
	case o.connTimeout > 0 || o.tlsInsecure:
		return errors.New("-conn-timeout and -tls-insecure are for TCP and TLS: a load run sends UDP only")
	}
	return nil
}

// openInput opens -input through the query mutations the flags ask for.
func openInput(o options) (trace.Reader, io.Closer, error) {
	chain := mutate.Chain{mutate.QueriesOnly()}
	if o.forceProto != "" {
		p, err := trace.ProtoFromString(o.forceProto)
		if err != nil {
			return nil, nil, err
		}
		chain = append(chain, mutate.ForceProtocol(p))
	}
	if o.doFrac >= 0 {
		chain = append(chain, mutate.SetDO(o.doFrac, 4096))
	}
	if o.prefix != "" {
		chain = append(chain, mutate.PrefixQNames(o.prefix))
	}
	r, c, err := pcap.OpenTrace(o.input)
	if err != nil {
		return nil, nil, err
	}
	return mutate.NewReader(r, chain), c, nil
}

func engineConfig(o options) (replay.Config, error) {
	ap, err := netip.ParseAddrPort(o.target)
	if err != nil {
		return replay.Config{}, fmt.Errorf("-target: %w", err)
	}
	cfg := replay.Config{
		Server:                 ap,
		QueriersPerDistributor: o.queriers,
		ConnIdleTimeout:        o.connTimeout,
		ResponseTimeout:        o.timeout,
		BatchSize:              o.batch,
		DropResults:            o.dropResults,
		Obs:                    o.reg,
	}
	if o.fast {
		cfg.Mode = replay.FastAsPossible
	}
	if o.tlsInsecure {
		cfg.TLSConfig = &tls.Config{InsecureSkipVerify: true}
	}
	return cfg, nil
}

func runStandalone(ctx context.Context, o options, out io.Writer) error {
	if o.input == "" || o.target == "" {
		return errors.New("standalone role needs -input and -target")
	}
	cfg, err := engineConfig(o)
	if err != nil {
		return err
	}
	in, c, err := openInput(o)
	if err != nil {
		return err
	}
	defer c.Close()
	src := in
	if o.loadRun() {
		queries, err := udpQueries(in, o.input)
		if err != nil {
			return err
		}
		if o.qps > 0 {
			sources := o.conc
			if sources == 0 {
				sources = o.queriers
			}
			src = replay.NewRateSource(queries, sources, o.qps, o.count, o.duration)
		} else {
			cfg.Mode = replay.FastAsPossible
			src = replay.NewWindowSource(queries, o.conc, o.reg, o.timeout, o.count, o.duration)
		}
	}
	eng, err := replay.New(cfg)
	if err != nil {
		return err
	}
	rep, err := eng.Run(ctx, src)
	if err != nil {
		return err
	}
	return printReport(out, rep, o.reg)
}

// udpQueries collects the UDP query wires of a load run's input. The
// set is bounded and cycles for as long as the run lasts.
func udpQueries(in trace.Reader, name string) ([][]byte, error) {
	tr, err := trace.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", name, err)
	}
	var qs [][]byte
	for _, e := range tr.Events {
		if e.Proto == trace.UDP && len(e.Wire) >= 12 {
			qs = append(qs, e.Wire)
		}
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("%s: no UDP queries", name)
	}
	return qs, nil
}

func runController(ctx context.Context, o options) error {
	if o.input == "" {
		return errors.New("controller role needs -input")
	}
	in, c, err := openInput(o)
	if err != nil {
		return err
	}
	defer c.Close()
	// Control-plane socket: distributors stream trace events here, no DNS
	// traffic.
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	log.Printf("controller on %s, waiting for %d client(s)", ln.Addr(), o.clients)
	if err := replay.ServeController(ctx, ln, in, o.clients); err != nil {
		return err
	}
	log.Print("stream complete")
	return nil
}

func runClient(ctx context.Context, o options, out io.Writer) error {
	if o.controller == "" || o.target == "" {
		return errors.New("client role needs -controller and -target")
	}
	cfg, err := engineConfig(o)
	if err != nil {
		return err
	}
	rep, err := replay.RunRemoteClient(ctx, o.controller, cfg)
	if err != nil {
		return err
	}
	return printReport(out, rep, o.reg)
}

// printReport writes the run's report. Throughput is answered queries
// over the time from first send to last, so the drain's wait for
// replies that never come does not dilute it. Latency runs from each
// query's intended send (its trace time, its place on the -qps
// schedule, or its admission to the -conc window) when results are
// kept, and is reg's wire RTT histogram, which serves this one run,
// when they are dropped. The send-time error (sent − intended) comes
// from the results too, or from reg's send-lag histogram; only the
// results know the worst.
func printReport(out io.Writer, rep *replay.Report, reg *obs.Registry) error {
	var b strings.Builder
	fmt.Fprintf(&b, "sent:        %d queries (%d bytes)\n", rep.Sent, rep.BytesSent)
	fmt.Fprintf(&b, "responses:   %d (%d timed out)\n", rep.Responses, rep.Timeouts)
	fmt.Fprintf(&b, "send errors: %d\n", rep.SendErrs)
	fmt.Fprintf(&b, "connections: %d opened\n", rep.ConnsOpened)
	fmt.Fprintf(&b, "duration:    %v\n", rep.Duration.Round(time.Microsecond))

	var qps float64
	if rep.Duration > 0 {
		qps = float64(rep.Responses) / rep.Duration.Seconds()
	}
	cores := runtime.GOMAXPROCS(0)
	fmt.Fprintf(&b, "throughput:  %.0f answered q/s (%.0f qps/core over %d cores)\n", qps, qps/float64(cores), cores)

	quantile, from := reg.Histogram("replay.rtt_seconds", obs.FineLatencyBuckets).Snap().Quantile, "wire RTT"
	lagQuantile := reg.Histogram("replay.send_lag_seconds", obs.FineLatencyBuckets).Snap().Quantile
	worst := ""
	if len(rep.Results) > 0 {
		var lat, lag []float64
		for _, r := range rep.Results {
			e := r.SentOffset - r.TraceOffset
			lag = append(lag, max(e, -e).Seconds())
			if r.RTT >= 0 {
				lat = append(lat, (e + r.RTT).Seconds())
			}
		}
		slices.Sort(lat)
		slices.Sort(lag)
		if len(lat) == 0 {
			lat = []float64{0} // nothing answered reads 0, as the histogram does
		}
		quantile, from = func(q float64) float64 { return metrics.Percentile(lat, q) }, "from intended send"
		lagQuantile = func(q float64) float64 { return metrics.Percentile(lag, q) }
		worst = "  worst " + fmtSecs(lag[len(lag)-1])
	}
	fmt.Fprintf(&b, "latency:     p50 %s  p90 %s  p99 %s  (%s)\n",
		fmtSecs(quantile(0.50)), fmtSecs(quantile(0.90)), fmtSecs(quantile(0.99)), from)
	fmt.Fprintf(&b, "timing:      send-time error p50 %s  p99 %s%s\n",
		fmtSecs(lagQuantile(0.50)), fmtSecs(lagQuantile(0.99)), worst)
	_, err := io.WriteString(out, b.String())
	return err
}

// fmtSecs renders a duration in seconds to 100 ns below 10 µs, where a
// paced send's error sits, and to 1 µs above.
func fmtSecs(s float64) string {
	d := time.Duration(s * float64(time.Second))
	if d < 10*time.Microsecond {
		return d.Round(100 * time.Nanosecond).String()
	}
	return d.Round(time.Microsecond).String()
}

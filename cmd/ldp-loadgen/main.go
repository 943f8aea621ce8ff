// Command ldp-loadgen drives a DNS server with UDP query load and
// reports achieved qps, qps per core and latency percentiles — the
// client side of the paper's throughput experiments (Figs 9, 13),
// pointed at ldp-server (or any authoritative server).
//
// It is a front end over the replay engine (internal/replay): the
// queries become a cyclic replay.Source and the engine sends them, so
// the counters and histograms are the replay.* series every other tool
// reports. Closed loop (default) measures the server's service rate:
// -conc queries are kept outstanding through the FastAsPossible plane.
// Open loop (-qps) replays a fixed-rate schedule from -conc trace
// sources whether or not responses return — the paper's replay
// discipline — and times each query from its intended send.
//
// Usage:
//
//	ldp-loadgen -target 127.0.0.1:5300 -conc 8 -duration 10s
//	ldp-loadgen -target 127.0.0.1:5300 -qps 50000 -duration 30s
//	ldp-loadgen -target 127.0.0.1:5300 -workload broot -count 100000
//	ldp-loadgen -target 127.0.0.1:5300 -trace queries.txt -count 10000
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/metrics"
	"ldplayer/internal/obs"
	"ldplayer/internal/replay"
	"ldplayer/internal/trace"
	"ldplayer/internal/workload"
)

type options struct {
	target   string
	qps      float64
	conc     int
	duration time.Duration
	count    int
	timeout  time.Duration
	workload string // syn | broot | rec
	trace    string // trace file overriding -workload
	domain   string
	debug    string
	reg      *obs.Registry
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldp-loadgen: ")

	var opts options
	flag.StringVar(&opts.target, "target", "127.0.0.1:5300", "server UDP address")
	flag.Float64Var(&opts.qps, "qps", 0, "open-loop aggregate send rate (0 = closed loop)")
	flag.IntVar(&opts.conc, "conc", runtime.GOMAXPROCS(0), "query sources: trace source addresses with -qps, queries kept outstanding without")
	flag.DurationVar(&opts.duration, "duration", 0, "stop after this long (0 = until -count)")
	flag.IntVar(&opts.count, "count", 0, "stop after this many queries (0 = until -duration)")
	flag.DurationVar(&opts.timeout, "timeout", 2*time.Second, "per-query response timeout")
	flag.StringVar(&opts.workload, "workload", "syn", "query workload: syn, broot or rec")
	flag.StringVar(&opts.trace, "trace", "", "read queries from a trace file instead of -workload (text or binary)")
	flag.StringVar(&opts.domain, "domain", "example.com.", "zone the syn workload queries under")
	flag.StringVar(&opts.debug, "debug-addr", "", "HTTP debug endpoint with /vars (empty disables)")
	flag.Parse()
	opts.reg = obs.Default

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, opts, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one load run and writes the human report to out.
func run(ctx context.Context, opts options, out io.Writer) error {
	if opts.duration <= 0 && opts.count <= 0 {
		return fmt.Errorf("need -duration or -count")
	}
	target, err := netip.ParseAddrPort(opts.target)
	if err != nil {
		return fmt.Errorf("-target: %w", err)
	}
	if opts.reg == nil {
		opts.reg = obs.NewRegistry()
	}
	if opts.debug != "" {
		_, addr, err := obs.ServeDebug(opts.debug, opts.reg)
		if err != nil {
			return fmt.Errorf("debug listen: %w", err)
		}
		fmt.Fprintf(out, "debug http on %s (/vars)\n", addr) //ldp:nolint errcheck — human report; a failed stdout write loses nothing measured
	}
	queries, err := buildQueries(opts)
	if err != nil {
		return err
	}

	cfg := replay.Config{
		Server:                 target,
		QueriersPerDistributor: min(opts.conc, runtime.GOMAXPROCS(0)),
		ResponseTimeout:        opts.timeout,
		Obs:                    opts.reg,
	}
	src := replay.NewRateSource(queries, opts.conc, opts.qps, opts.count, opts.duration)
	if opts.qps <= 0 {
		cfg.Mode, cfg.DropResults = replay.FastAsPossible, true
		src = replay.NewWindowSource(queries, opts.conc, opts.reg, opts.timeout, opts.count, opts.duration)
	}
	eng, err := replay.New(cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := eng.Run(ctx, src)
	if err != nil {
		return err
	}
	// Load time is first send to last: the drain's wait for replies
	// that never came would only dilute the rate.
	elapsed := rep.Duration
	if elapsed <= 0 {
		elapsed = time.Since(start)
	}
	qps := float64(rep.Responses) / elapsed.Seconds()

	// Closed loop has no schedule: the engine's RTT histogram (this
	// registry serves one run) is the latency. Open loop counts from
	// the intended send: the schedule lag added to each wire RTT.
	quantile := opts.reg.Histogram("replay.rtt_seconds", obs.FineLatencyBuckets).Snap().Quantile
	if opts.qps > 0 {
		var lat []float64
		for _, r := range rep.Results {
			if r.RTT >= 0 {
				lat = append(lat, (r.SentOffset - r.TraceOffset + r.RTT).Seconds())
			}
		}
		slices.Sort(lat)
		if len(lat) == 0 {
			lat = []float64{0} // nothing answered reads 0, as the histogram does
		}
		quantile = func(q float64) float64 { return metrics.Percentile(lat, q) }
	}

	//ldp:nolint errcheck — human report; a failed stdout write loses nothing measured
	fmt.Fprintf(out, "sent %d, received %d, timeouts %d in %v\n"+
		"throughput: %.0f qps (%.0f qps/core over %d cores)\n"+
		"latency: p50 %s  p90 %s  p99 %s\n",
		rep.Sent, rep.Responses, rep.Timeouts, elapsed.Round(time.Millisecond),
		qps, qps/float64(runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0),
		fmtSecs(quantile(0.50)), fmtSecs(quantile(0.90)), fmtSecs(quantile(0.99)))
	return nil
}

// buildQueries assembles the UDP query wires of a trace file or one of
// the workload models. The set is bounded — queries cycle during long
// runs — so model durations here size variety, not run length.
func buildQueries(opts options) ([][]byte, error) {
	var tr *trace.Trace
	from := fmt.Sprintf("workload %q", opts.workload)
	switch {
	case opts.trace != "":
		from = opts.trace
		f, err := os.Open(opts.trace)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var rd trace.Reader = trace.NewBinaryReader(f)
		if filepath.Ext(opts.trace) == ".txt" {
			rd = trace.NewTextReader(f)
		}
		if tr, err = trace.ReadAll(rd); err != nil {
			return nil, fmt.Errorf("read %s: %w", opts.trace, err)
		}
	case opts.workload == "syn":
		domain, err := dnsmsg.ParseName(opts.domain)
		if err != nil {
			return nil, fmt.Errorf("-domain: %w", err)
		}
		tr = workload.Synthetic(workload.SyntheticConfig{
			InterArrival: time.Millisecond,
			Duration:     10 * time.Second, // 10k distinct names to cycle
			Domain:       domain,
		})
	case opts.workload == "broot":
		tr = workload.BRootModel(workload.BRootConfig{Duration: 10 * time.Second, MedianRate: 1000, Clients: 1000})
	case opts.workload == "rec":
		tr = workload.RecModel(workload.RecConfig{Duration: 10 * time.Second, Queries: 10000})
	default:
		return nil, fmt.Errorf("unknown -workload %q (want syn, broot or rec)", opts.workload)
	}
	var qs [][]byte
	for _, e := range tr.Events {
		if e.Proto == trace.UDP && e.IsQuery() && len(e.Wire) >= 12 {
			qs = append(qs, e.Wire)
		}
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("%s: no UDP queries", from)
	}
	return qs, nil
}

// fmtSecs renders a latency quantile with sub-millisecond resolution.
func fmtSecs(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

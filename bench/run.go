package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/mutate"
	"ldplayer/internal/obs"
	"ldplayer/internal/replay"
	"ldplayer/internal/trace"
)

// The fast workload's window sits under the ~270 small datagrams a
// default 208 KiB loopback receive buffer holds.
const feedWindow = 128

// unanswered stands in for the latency of a query that got no response:
// over any limit, so it pushes every percentile it reaches upward.
const unansweredUs = 1e12

// measurement is what one pass over a set-up workload yields.
type measurement struct {
	e2e    map[string]float64 // end-to-end metrics (set-up time is added by the caller)
	layers map[string]float64 // the per-layer metrics a pass can see

	attempted, answered uint64
	problems            []string // oracle or conservation failures
}

// failed is how many attempted queries got no response.
func (m *measurement) failed() uint64 { return m.attempted - min(m.answered, m.attempted) }

// tick is one reading of the sampler that runs beside a pass.
type tick struct {
	at                time.Duration
	handed, responses uint64
	cpu               time.Duration // process CPU time, precise
	user, sys         time.Duration // getrusage's split of it, tick-sampled
	goroutines        int
	tcpOpen           float64
	heap              uint64 // traced pass only (reading it stops the world)
}

// sampler reads counters once per slice for the per-slice medians.
type sampler struct {
	every     time.Duration
	handed    func() uint64
	responses *obs.Counter
	tcpOpen   *obs.Gauge
	heap      bool

	start time.Time
	ticks []tick
	stop  chan struct{}
	wg    sync.WaitGroup
}

func (s *sampler) read() tick {
	u, sy := sysCPUTime()
	t := tick{
		at: time.Since(s.start), handed: s.handed(), responses: s.responses.Value(),
		cpu: cpuTime(), user: u, sys: sy, goroutines: runtime.NumGoroutine(),
	}
	if s.tcpOpen != nil {
		t.tcpOpen = s.tcpOpen.Value()
	}
	if s.heap {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		t.heap = ms.HeapInuse
	}
	return t
}

func (s *sampler) run() {
	s.start = time.Now()
	s.stop = make(chan struct{})
	s.ticks = append(s.ticks, s.read())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tk := time.NewTicker(s.every)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				s.ticks = append(s.ticks, s.read())
			case <-s.stop:
				return
			}
		}
	}()
}

func (s *sampler) finish() []tick {
	close(s.stop)
	s.wg.Wait()
	return append(s.ticks, s.read())
}

// runPass replays the rig's workload once and measures it. tr is the
// tracer whose wrappers the rig's server sockets already carry, or nil.
func runPass(r *rig, sc scale, tr *tracer) (*measurement, error) {
	w := r.w
	reg := obs.NewRegistry()
	cfg := replay.Config{
		Server:                 r.target,
		Distributors:           1,
		QueriersPerDistributor: sc.procs,
		DropResults:            w.fast,
		Obs:                    reg,
	}
	if w.fast {
		cfg.Mode = replay.FastAsPossible
	}
	if tr != nil || w.fast {
		cfg.Dialer = &benchDialer{t: tr, ports: r.clientPorts}
	}
	eng, err := replay.New(cfg)
	if err != nil {
		return nil, err
	}

	// The engine's own instruments, by the names it registers them under.
	responses := reg.Counter("replay.responses")
	sendErrs := reg.Counter("replay.send_errors")
	sent := reg.Counter("replay.sent")

	var (
		input  trace.Reader
		feed   *windowFeed
		sched  *scheduleReader
		handed func() uint64
	)
	if w.fast {
		feed = &windowFeed{
			events: r.events, window: feedWindow,
			settled: func() uint64 { return responses.Value() + sendErrs.Value() },
			sent:    sent.Value,
			warmup:  sc.warmup, length: sc.length,
			stallAfter: 100 * time.Millisecond, poll: 20 * time.Microsecond,
		}
		if tr != nil {
			feed.mark = tr.mark
		}
		input, handed = feed, feed.handed.Load
	} else {
		f, err := os.Open(r.traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sched = &scheduleReader{src: mutate.NewReader(trace.NewBinaryReader(f),
			mutate.Chain{mutate.QueriesOnly(), mutate.ForceProtocol(w.proto)})}
		if tr != nil {
			sched.mark = tr.mark
		}
		input, handed = sched, sched.handed.Load
	}

	smp := &sampler{every: sc.slice, handed: handed, responses: responses, heap: tr != nil}
	if r.srv != nil {
		smp.tcpOpen = r.srv.Obs().Gauge("server.conns.tcp_open")
	}

	// Settle set-up garbage so the pass pays only for its own.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := runtimeCPU()
	rcv0, soft0 := udpRcvbufErrors(), softnetDropped()
	srv0, res0 := r.serverCounters(), obs.Default.Snapshot()
	net0, up0 := r.vnetDelivered(), r.upstreamCount()

	smp.run()
	rep, err := eng.Run(context.Background(), input)
	ticks := smp.finish()
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	runtime.ReadMemStats(&after)
	gc1, cpu1 := runtimeCPU()

	m := &measurement{e2e: map[string]float64{}, layers: map[string]float64{}}
	m.attempted, m.answered = handed(), rep.Responses
	failed := m.failed()

	// Conservation: every attempted query is answered or is one named loss.
	if got := rep.Responses + rep.Timeouts + rep.SendErrs; got != m.attempted {
		m.problems = append(m.problems, fmt.Sprintf(
			"conservation: attempted %d != answered %d + timeouts %d + send errors %d (of which id exhausted %d)",
			m.attempted, rep.Responses, rep.Timeouts, rep.SendErrs, rep.IDExhausted))
	}
	if err := r.checkOracle(reg.Snapshot().Counters, m.attempted, failed); err != nil {
		m.problems = append(m.problems, "oracle: "+err.Error())
	}

	// Lag and latency samples, each stamped with its intended send time.
	var lag, lat []sample
	if w.fast {
		lag, lat = feed.lag, feed.latency
	} else {
		lag, lat = make([]sample, len(rep.Results)), make([]sample, len(rep.Results))
		for i, q := range rep.Results {
			l := float64(q.SentOffset-q.TraceOffset) / 1e3
			lag[i] = sample{at: q.TraceOffset, us: l}
			lat[i] = sample{at: q.TraceOffset, us: unansweredUs}
			if q.RTT >= 0 {
				lat[i].us = l + float64(q.RTT)/1e3
			}
		}
	}
	m.e2e["sched_lag_p50_us"], _, _ = slicedQuantile(lag, sc.warmup, sc.slice, 0.50)
	m.e2e["latency_p50_us"], _, _ = slicedQuantile(lat, sc.warmup, sc.slice, 0.50)
	m.e2e["answered_frac"] = float64(m.answered) / float64(max(m.attempted, 1))
	m.e2e["peak_rss_mb"] = rss

	// Throughput and CPU per query: per slice of the measured window,
	// then the median over slices. The last reading is taken when the
	// pass ends, not on the slice schedule, so it closes no slice.
	var qps, cpuPerQ []float64
	var win []tick
	for _, t := range ticks[:len(ticks)-1] {
		if t.at >= sc.warmup-sc.slice/4 && t.at <= sc.warmup+sc.length+sc.slice/4 {
			win = append(win, t)
		}
	}
	for i := 1; i < len(win); i++ {
		a, b := win[i-1], win[i]
		if dt := (b.at - a.at).Seconds(); dt > 0 {
			qps = append(qps, float64(b.responses-a.responses)/dt)
		}
		if dq := b.handed - a.handed; dq > 0 {
			cpuPerQ = append(cpuPerQ, float64(b.cpu-a.cpu)/1e3/float64(dq))
		}
	}
	m.e2e["answered_qps"] = median(qps)

	// --- what the pass shows of single layers ---
	L := m.layers
	L["runtime.cpu_us_per_query"] = median(cpuPerQ)
	L["replay.sched_lag_p75_us"], _, _ = slicedQuantile(lag, sc.warmup, sc.slice, 0.75)
	L["replay.latency_p90_us"], _, _ = slicedQuantile(lat, sc.warmup, sc.slice, 0.90)
	lagTail, latTail := pooled(lag, sc.warmup), pooled(lat, sc.warmup)
	L["replay.sched_lag_p99_us"] = sortedQuantile(lagTail, 0.99)
	L["replay.sched_lag_p999_us"] = sortedQuantile(lagTail, 0.999)
	L["replay.sched_lag_max_us"] = sortedQuantile(lagTail, 1)
	L["replay.latency_p99_us"] = sortedQuantile(latTail, 0.99)
	L["replay.latency_p999_us"] = sortedQuantile(latTail, 0.999)
	L["replay.tail_samples"] = float64(len(latTail))
	L["replay.loss_frac"] = float64(failed) / float64(max(m.attempted, 1))
	L["replay.send_errors"] = float64(rep.SendErrs - rep.IDExhausted)
	L["replay.timeouts"] = float64(rep.Timeouts)
	L["replay.id_exhausted"] = float64(rep.IDExhausted)
	L["replay.conns_opened"] = float64(rep.ConnsOpened)
	if w.proto != trace.UDP && rep.Sent > 0 {
		L["replay.conn_reuse_ratio"] = 1 - float64(rep.ConnsOpened)/float64(rep.Sent)
	}
	wall := ticks[len(ticks)-1].at
	if feed != nil {
		L["replay.feed_stalls"] = float64(feed.stalls)
	} else {
		L["replay.feed_late_max_us"] = float64(sched.lateMax) / 1e3
		L["trace.read_busy_frac"] = sched.busy.Seconds() / wall.Seconds()
	}

	srv1 := r.serverCounters()
	if hits, misses := srv1["server.anscache.hits"]-srv0["server.anscache.hits"],
		srv1["server.anscache.misses"]-srv0["server.anscache.misses"]; hits+misses > 0 {
		L["server.anscache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	var peakConns float64
	var peakHeap uint64
	for _, t := range ticks {
		L["runtime.goroutines_peak"] = math.Max(L["runtime.goroutines_peak"], float64(t.goroutines))
		if t.tcpOpen > peakConns {
			peakConns, peakHeap = t.tcpOpen, t.heap
		}
	}
	L["server.tcp_conns_open_peak"] = peakConns
	if peakConns > 0 && peakHeap > ticks[0].heap {
		// Both ends of every connection live in this process, so this is
		// client and server state together.
		L["server.heap_kb_per_conn"] = float64(peakHeap-ticks[0].heap) / 1024 / peakConns
	}

	if stubs := float64(m.attempted); w.rec && stubs > 0 {
		L["resolver.upstream_per_stub"] = float64(r.upstreamCount()-up0) / stubs
		L["vnet.packets_per_stub"] = float64(r.vnetDelivered()-net0) / stubs
		res1 := obs.Default.Snapshot().Counters
		hits := res1["resolver.cache.hits"] - res0.Counters["resolver.cache.hits"]
		misses := res1["resolver.cache.misses"] - res0.Counters["resolver.cache.misses"]
		if hits+misses > 0 {
			L["resolver.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
	}

	L["kernel.udp_rcvbuf_errors"] = float64(udpRcvbufErrors() - rcv0)
	L["kernel.softnet_dropped"] = float64(softnetDropped() - soft0)
	first, last := ticks[0], ticks[len(ticks)-1]
	if cpu := (last.user + last.sys) - (first.user + first.sys); cpu > 0 {
		L["kernel.sys_cpu_frac"] = float64(last.sys-first.sys) / float64(cpu)
	}
	L["runtime.allocs_per_query"] = float64(after.Mallocs-before.Mallocs) / float64(max(m.attempted, 1))
	L["runtime.gc_pause_ms_total"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	L["runtime.heap_peak_mb"] = float64(after.HeapSys-after.HeapReleased) / (1 << 20)
	if cpu1 > cpu0 {
		L["runtime.gc_cpu_frac"] = (gc1 - gc0) / (cpu1 - cpu0)
	}

	if tr != nil {
		tracedLayers(tr, m)
	}
	return m, nil
}

// tracedLayers turns the sampled timelines into stage medians and
// checks that they add up to the pass's own median latency.
func tracedLayers(tr *tracer, m *measurement) {
	var pipeline, transit, service, inServer []float64
	for _, r := range tr.complete() {
		begin := max(r.due, r.handout)
		pipeline = append(pipeline, float64(r.send-begin)/1e3)
		transit = append(transit, float64((r.srvRecv-r.send)+(r.cliRecv-r.srvSend))/1e3)
		// The reply leaves in one write for the whole batch it was read
		// with, so the time in the server is shared by that batch.
		service = append(service, float64(r.srvSend-r.srvRecv)/1e3/float64(max(r.srvBatch, 1)))
		inServer = append(inServer, float64(r.srvSend-r.srvRecv)/1e3)
	}
	L := m.layers
	L["bench.trace_samples"] = float64(len(pipeline))
	L["replay.pipeline_p50_us"] = median(pipeline)
	L["kernel.transit_p50_us"] = median(transit)
	L["server.service_p50_us"] = median(service)
	if calls := tr.batchCalls.Load(); calls > 0 {
		L["transport.batch_fill_mean"] = float64(tr.batchDgrams.Load()) / float64(calls)
	}
	if p50 := m.e2e["latency_p50_us"]; p50 > 0 {
		L["bench.budget_closure_frac"] = (median(pipeline) + median(transit) + median(inServer)) / p50
	}
}

// runtimeCPU reads the runtime's own CPU accounting: seconds spent in
// the garbage collector and in total.
func runtimeCPU() (gc, total float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 || s[1].Value.Kind() != rtmetrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func (r *rig) serverCounters() map[string]uint64 {
	if r.srv == nil {
		return map[string]uint64{}
	}
	return r.srv.Obs().Snapshot().Counters
}

func (r *rig) vnetDelivered() uint64 {
	if r.em == nil {
		return 0
	}
	d, _, _ := r.em.Net.Counters()
	return d
}

func (r *rig) upstreamCount() uint64 {
	if r.upstream == nil {
		return 0
	}
	return r.upstream.Load()
}

// checkOracle predicts the rcode of every query the pass attempted by
// asking a never-served copy of the server directly, and compares the
// histogram with the replay engine's own per-rcode counters. Observed
// counts may fall short of predicted ones only by the failed queries.
func (r *rig) checkOracle(counters map[string]uint64, attempted, failed uint64) error {
	want := map[string]uint64{}
	src := loopbackSrc // the oracle's one view matches every client
	if r.w.fast {
		rc, err := r.predict(r.events[0], src, map[string]dnsmsg.Rcode{})
		if err != nil {
			return err
		}
		want[rc.String()] = attempted
	} else {
		f, err := os.Open(r.traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		br := trace.NewBinaryReader(f)
		memo := map[string]dnsmsg.Rcode{}
		for {
			ev, err := br.Read()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			rc, err := r.predict(ev, src, memo)
			if err != nil {
				return err
			}
			want[rc.String()]++
		}
	}
	var short uint64
	for name, got := range counters {
		rc, ok := strings.CutPrefix(name, "replay.rcode.")
		if !ok {
			continue
		}
		if got > want[rc] {
			return fmt.Errorf("%d %s responses, at most %d predicted", got, rc, want[rc])
		}
	}
	for rc, n := range want {
		short += n - counters["replay.rcode."+rc]
	}
	if short != failed {
		return fmt.Errorf("responses fall %d short of the predicted rcode histogram, but %d queries failed", short, failed)
	}
	return nil
}

// predict answers one trace query on the oracle server. Queries equal
// after the ID share a prediction.
func (r *rig) predict(ev *trace.Event, src netip.Addr, memo map[string]dnsmsg.Rcode) (dnsmsg.Rcode, error) {
	if len(ev.Wire) < 2 {
		return 0, fmt.Errorf("trace event shorter than a DNS ID")
	}
	key := string(ev.Wire[2:])
	if rc, ok := memo[key]; ok {
		return rc, nil
	}
	var q dnsmsg.Msg
	if err := q.Unpack(ev.Wire); err != nil {
		return 0, fmt.Errorf("trace query does not decode: %w", err)
	}
	maxSize := dnsmsg.MaxUDPSize
	if r.w.proto != trace.UDP || r.w.rec {
		maxSize = 0
	}
	rc := r.oracle.HandleQuery(src, &q, maxSize).Rcode
	memo[key] = rc
	return rc, nil
}

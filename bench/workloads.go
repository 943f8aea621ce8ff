package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/hierarchy"
	"ldplayer/internal/obs"
	"ldplayer/internal/server"
	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
	model "ldplayer/internal/workload"
	"ldplayer/internal/zone"
	"ldplayer/internal/zonegen"
)

// workload is one traffic mix. Source count is a dimension of the
// traffic (the system under test owns one socket per emulated source),
// not driver concurrency: the driver is one feeding goroutine.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	fast bool   // FastAsPossible behind the windowed feed; otherwise Timed, open loop on the trace schedule
	// proto is what mutate.ForceProtocol rewrites every query to.
	proto   trace.Proto
	rate    float64 // trace queries per second (timed workloads)
	sources int
	rec     bool // replay against the recursive server over the emulated hierarchy
	// hotRecords sizes the fast workload's served zone.
	hotRecords int
}

// workloads is the benchmark's table; README.md has a paragraph on each.
var workloads = []workload{
	{
		// The paper's headline use: faithful replay of a root trace.
		// Pacing wheel, source routing, one transport.Conn per source
		// and a mixed answer-cache hit rate all do work, and the cores
		// are about half busy, so CPU per query means something.
		name: "broot-udp-timed", proto: trace.UDP, rate: 20000, sources: 2000,
		why: "B-Root model on its trace schedule over UDP shards: pacing, routing, per-source sockets and a mixed answer-cache hit rate all work",
	},
	{
		// The paper's single-host throughput figure: smallest packets,
		// every answer from the answer cache, so per-datagram I/O
		// (sendmmsg/recvmmsg, ID table, shard loop) is nearly all the
		// work and pacing none. Both cores are full.
		name: "hot-udp-fast", fast: true, proto: trace.UDP, sources: 1024, hotRecords: 300000,
		why: "one cached query as fast as a 128-query window allows: per-datagram I/O does nearly all the work, pacing none, cores full",
	},
	{
		// The paper's all-TCP what-if: the same replay, transport and
		// server layers used differently (stream framing, connection
		// reuse, ServeTCP in place of the shards), so a UDP gain that
		// costs the stream path shows here, and memory per connection
		// has a home.
		name: "broot-tcp-timed", proto: trace.TCP, rate: 10000, sources: 2000,
		why: "the same root model forced to TCP: stream framing, connection reuse and ServeTCP replace the datagram path",
	},
	{
		// The paper's flagship configuration and the only workload
		// where resolver, hierarchy, proxies, vnet, cache, view
		// selection and the non-pooled codec run. Data-plane work on
		// the first two workloads should leave it unchanged.
		name: "rec-hierarchy-timed", proto: trace.UDP, rate: 2000, sources: 91, rec: true,
		why: "stub queries to the recursive server over the emulated hierarchy (2011 views): resolver, proxies, vnet and cache, bypassing the shards",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// descriptors is how many file descriptors the workload's sources need.
func (w *workload) descriptors() int {
	n := w.sources + 64
	if w.proto == trace.TCP {
		n += w.sources // the server's end of every connection is in this process too
	}
	return n
}

// scale is how long a pass runs and how it is cut up.
type scale struct {
	warmup, length time.Duration // warm-up is replayed but not measured
	slice          time.Duration // width of the slices medians are taken over
	quick          bool          // smoke-test sizes: fewer sources, smaller zones
	procs          int           // GOMAXPROCS = queriers = UDP shards
}

// rig is a set-up workload: zones loaded, trace on disk, listeners up.
type rig struct {
	w      *workload
	target netip.AddrPort
	stop   func() // cancels the listeners and waits for them

	srv      *server.Server       // authoritative server (nil for the recursive workload)
	em       *hierarchy.Emulation // recursive workload only
	upstream *atomic.Uint64       // recursive workload: upstream exchanges seen by the resolver's Tap
	hier     *zonegen.Hierarchy

	// oracle hosts the same zones in a server that is never served
	// from; HandleQuery on it predicts every trace query's rcode.
	oracle *server.Server

	zones     []*zone.Zone   // what the server hosts, for the direct layer measurements
	traceFile string         // timed workloads: the binary trace
	events    []*trace.Event // fast workload: the cycle
	// clientPorts is the fast workload's client port per server shard.
	clientPorts []int

	zoneRecords int           // records parsed from zone text during set-up
	zoneParse   time.Duration // time inside zone.ParseParallel
}

// setUp builds everything a pass needs from the seed alone. tr is nil
// on an untraced pass; on a traced one the sockets handed to the server
// are wrapped.
func (w *workload) setUp(seed int64, sc scale, dir string, tr *tracer) (*rig, error) {
	r := &rig{w: w}
	sources := w.sources
	if sc.quick {
		sources = min(sources, 100)
	}
	total := sc.warmup + sc.length

	var zones []*zone.Zone
	var events []*trace.Event
	switch {
	case w.rec:
		cfg := zonegen.Config{SLDsPerTLD: 200, HostsPerSLD: 8, Seed: seed}
		if sc.quick {
			cfg.TLDs, cfg.SLDsPerTLD = zonegen.DefaultTLDs[:3], 20
		}
		h, err := zonegen.Generate(cfg)
		if err != nil {
			return nil, err
		}
		// Every zone goes through text and the parser, as ldp-server
		// loads them.
		for origin, z := range h.Zones {
			pz, err := r.loadZone(z)
			if err != nil {
				return nil, err
			}
			h.Zones[origin] = pz
			zones = append(zones, pz)
		}
		h.Root = h.Zones[dnsmsg.Root]
		r.hier = h
		events = model.RecModel(model.RecConfig{
			Duration: total, Queries: int(w.rate * total.Seconds()), Clients: sources,
			Zones: h.SLDs, Seed: seed,
		}).Events
	case w.fast:
		records := w.hotRecords
		if sc.quick {
			records = 20000
		}
		z, err := r.parseZone(hotZoneText(seed, records))
		if err != nil {
			return nil, err
		}
		zones = []*zone.Zone{z}
		r.events = hotEvents(sources)
	default:
		for _, z := range append([]*zone.Zone{zonegen.RootZone(nil)}, wildcardTLDs()...) {
			pz, err := r.loadZone(z)
			if err != nil {
				return nil, err
			}
			zones = append(zones, pz)
		}
		// The model works in whole seconds: ask for enough and cut.
		events = model.BRootModel(model.BRootConfig{
			Duration: total.Truncate(time.Second) + time.Second, MedianRate: w.rate, Clients: sources, Seed: seed,
		}).Events
		for i, ev := range events {
			if ev.Time.Sub(events[0].Time) >= total {
				events = events[:i]
				break
			}
		}
	}

	if events != nil {
		r.traceFile = filepath.Join(dir, fmt.Sprintf("%s-%d.ldpb", w.name, seed))
		if err := writeTrace(r.traceFile, events); err != nil {
			return nil, err
		}
	}

	r.zones = zones
	r.oracle = server.New(server.Config{})
	for _, z := range zones {
		if err := r.oracle.AddZone(z); err != nil {
			return nil, err
		}
	}

	var err error
	if w.rec {
		err = r.startRecursive(tr)
	} else {
		err = r.startAuthoritative(zones, sc.procs, tr)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// loadZone serializes z to master-file text and parses it back.
func (r *rig) loadZone(z *zone.Zone) (*zone.Zone, error) {
	var buf bytes.Buffer
	if _, err := z.WriteTo(&buf); err != nil {
		return nil, err
	}
	return r.parseZone(buf.Bytes())
}

// parseZone is the ingest ldp-server performs: ParseParallel, Validate.
func (r *rig) parseZone(text []byte) (*zone.Zone, error) {
	t0 := time.Now()
	z, err := zone.ParseParallel(bytes.NewReader(text), "", 0)
	r.zoneParse += time.Since(t0)
	if err != nil {
		return nil, err
	}
	if err := z.Validate(); err != nil {
		return nil, err
	}
	r.zoneRecords += z.RecordCount()
	return z, nil
}

func wildcardTLDs() []*zone.Zone {
	var zs []*zone.Zone
	for _, tld := range zonegen.DefaultTLDs {
		zs = append(zs, zonegen.WildcardZone(dnsmsg.MustParseName(tld+".")))
	}
	return zs
}

// hotZoneText is the fast workload's served zone: example.com. with the
// one name the workload asks for and records seeded host records, so
// set-up there is dominated by ingest.
func hotZoneText(seed int64, records int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	b.WriteString("$ORIGIN example.com.\n" +
		"example.com.\t3600\tIN\tSOA\tns1.example.com. admin.example.com. 1 7200 3600 1209600 300\n" +
		"example.com.\t3600\tIN\tNS\tns1.example.com.\n" +
		"ns1.example.com.\t3600\tIN\tA\t192.0.2.53\n" +
		"www.example.com.\t300\tIN\tA\t192.0.2.80\n")
	for i := 0; i < records; i++ {
		fmt.Fprintf(&b, "h%d-%x.example.com.\t300\tIN\tA\t10.%d.%d.%d\n",
			i, rng.Uint32(), rng.Intn(256), rng.Intn(256), rng.Intn(256))
	}
	return b.Bytes()
}

// hotEvents is one identical query from each of n sources.
func hotEvents(n int) []*trace.Event {
	var m dnsmsg.Msg
	m.SetQuestion("www.example.com.", dnsmsg.TypeA)
	wire, err := m.Pack()
	if err != nil {
		panic(err) // a fixed, valid question
	}
	evs := make([]*trace.Event, n)
	for i := range evs {
		evs[i] = &trace.Event{
			Time:  model.DefaultStart,
			Src:   netip.AddrPortFrom(netip.AddrFrom4([4]byte{100, 64, byte(i >> 8), byte(i)}), 40000),
			Dst:   model.ServerAddr,
			Proto: trace.UDP,
			Wire:  wire,
		}
	}
	return evs
}

func writeTrace(path string, events []*trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := trace.NewBinaryWriter(f)
	for _, ev := range events {
		if err := bw.Write(ev); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startAuthoritative brings the server up the way ldp-server does: one
// SO_REUSEPORT socket per shard through ServeUDPShards, and ServeTCP on
// the same port.
func (r *rig) startAuthoritative(zones []*zone.Zone, shards int, tr *tracer) error {
	r.srv = server.New(server.Config{UDPWorkers: shards, Obs: obs.NewRegistry()})
	for _, z := range zones {
		if err := r.srv.AddZone(z); err != nil {
			return err
		}
	}
	var (
		conns []net.PacketConn
		ln    net.Listener
		err   error
	)
	// The UDP port is the kernel's choice; TCP must get the same one,
	// which another process may hold, so try again with a fresh port.
	for attempt := 0; ; attempt++ {
		conns, r.target, err = transport.ListenUDPReusePort("127.0.0.1:0", shards)
		if err != nil {
			return err
		}
		if ln, _, err = transport.ListenTCP(r.target.String()); err == nil {
			break
		}
		closeAll(conns)
		if attempt == 8 {
			return err
		}
	}
	growReadBuffers(conns)
	if r.w.fast {
		r.clientPorts = probeShardPorts(conns, r.target)
	}
	for len(conns) < shards { // no SO_REUSEPORT: shards share the one socket
		conns = append(conns, conns[0])
	}
	raw := conns
	if tr != nil {
		wrapped := map[net.PacketConn]net.PacketConn{}
		conns = make([]net.PacketConn, len(raw))
		for i, c := range raw {
			if wrapped[c] == nil {
				wrapped[c] = newTracedPacketConn(c, tr, true)
			}
			conns[i] = wrapped[c]
		}
		ln = &tracedListener{Listener: ln, t: tr}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = r.srv.ServeUDPShards(ctx, conns) }() // returns ctx.Err() on stop
	go func() { defer wg.Done(); _ = r.srv.ServeTCP(ctx, ln) }()
	r.stop = func() {
		cancel()
		wg.Wait()
		closeAll(raw)
	}
	return nil
}

// startRecursive assembles the hierarchy emulation (meta-server and
// both proxies on vnet) and puts its resolver on a loopback socket.
func (r *rig) startRecursive(tr *tracer) error {
	r.upstream = new(atomic.Uint64)
	cfg := hierarchy.DefaultConfig()
	cfg.Tap = func(netip.AddrPort, *dnsmsg.Msg, *dnsmsg.Msg) { r.upstream.Add(1) }
	em, err := hierarchy.New(r.hier, cfg)
	if err != nil {
		return err
	}
	r.em = em
	pc, addr, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	r.target = addr
	growReadBuffers([]net.PacketConn{pc})
	serve := pc
	if tr != nil {
		serve = newTracedPacketConn(pc, tr, true)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = em.Resolver.ServeUDP(ctx, serve, 0) }() // returns nil on stop
	r.stop = func() {
		cancel()
		<-done
		pc.Close()
	}
	return nil
}

// serverReadBuffer is what the benchmark asks for on the sockets it
// hands to a server. A shard held off its core for 30 ms (a hypervisor
// does that to a shared sandbox) comes back to a burst the default
// 208 KiB buffer drops from, and the drops would be the sandbox's, not
// the program's. The kernel grants at most net.core.rmem_max.
const serverReadBuffer = 4 << 20

func growReadBuffers(conns []net.PacketConn) {
	for _, c := range conns {
		if uc, ok := c.(*net.UDPConn); ok {
			_ = uc.SetReadBuffer(serverReadBuffer) // refused: the default stays, and the environment record says so
		}
	}
}

func closeAll(conns []net.PacketConn) {
	for _, c := range conns {
		c.Close()
	}
}

// tearDown stops the listeners and removes the trace file.
func (r *rig) tearDown() {
	r.stop()
	if r.traceFile != "" {
		os.Remove(r.traceFile)
	}
}

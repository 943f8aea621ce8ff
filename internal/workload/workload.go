// Package workload generates the traces of the paper's Table 1: the
// fixed-interval synthetic traces (syn-0..syn-4), a statistical model of
// B-Root DITL traffic (rate variation, heavy-tailed client skew, DO and
// TCP fractions), and a department-recursive model (Rec-17). Real DITL
// captures are not redistributable, so experiments run on these models;
// the properties each experiment measures — rates, inter-arrivals,
// client skew, protocol/DO mix — are matched to the numbers the paper
// reports.
package workload

import (
	"math"
	"math/rand"
	"net/netip"
	"strconv"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/trace"
)

// DefaultStart is the fixed trace epoch (B-Root-16's capture date);
// fixed timestamps keep generated traces byte-stable across runs.
var DefaultStart = time.Unix(1459954800, 0) // 2016-04-06 15:00 UTC

// ServerAddr is the replayed-against server in generated traces.
var ServerAddr = netip.AddrPortFrom(netip.MustParseAddr("198.41.0.4"), 53)

// SyntheticConfig describes a syn-N trace: queries at a fixed interval,
// each with a unique name (the paper matches queries to responses by
// name).
type SyntheticConfig struct {
	InterArrival time.Duration
	Duration     time.Duration
	Clients      int         // distinct source addresses
	Domain       dnsmsg.Name // names are generated under this zone
	Start        time.Time
	Seed         int64
}

// Synthetic builds a fixed-interval trace.
func Synthetic(cfg SyntheticConfig) *trace.Trace {
	if cfg.Domain == "" {
		cfg.Domain = "example.com."
	}
	if cfg.Start.IsZero() {
		cfg.Start = DefaultStart
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := int(cfg.Duration / cfg.InterArrival)
	tr := &trace.Trace{Events: make([]*trace.Event, 0, n)}
	var b builder
	for i := 0; i < n; i++ {
		client := clientAddr(i % cfg.Clients)
		b.name = append(strconv.AppendInt(append(b.name[:0], 'q'), int64(i), 10), '.') // q<i>.<domain>
		b.name = append(b.name, cfg.Domain...)
		tr.Events = append(tr.Events, b.query(
			cfg.Start.Add(time.Duration(i)*cfg.InterArrival),
			netip.AddrPortFrom(client, uint16(20000+rng.Intn(30000))),
			dnsmsg.TypeA, false, trace.UDP))
	}
	return tr
}

// Table1Synthetics returns syn-0..syn-4 as the paper configures them:
// 60-second traces with inter-arrivals 1 s down to 0.1 ms. Scale shrinks
// the duration (scale 0.1 = 6-second traces) for constrained runs.
func Table1Synthetics(scale float64) map[string]*trace.Trace {
	if scale <= 0 {
		scale = 1
	}
	specs := map[string]struct {
		inter   time.Duration
		clients int
	}{
		"syn-0": {time.Second, 3000},
		"syn-1": {100 * time.Millisecond, 9700},
		"syn-2": {10 * time.Millisecond, 10000},
		"syn-3": {time.Millisecond, 10000},
		"syn-4": {100 * time.Microsecond, 10000},
	}
	out := make(map[string]*trace.Trace, len(specs))
	for name, sp := range specs {
		out[name] = Synthetic(SyntheticConfig{
			InterArrival: sp.inter,
			Duration:     time.Duration(60 * scale * float64(time.Second)),
			Clients:      sp.clients,
			Seed:         int64(len(name)) + int64(sp.inter),
		})
	}
	return out
}

// BRootConfig parameterizes the B-Root traffic model.
type BRootConfig struct {
	Duration    time.Duration
	MedianRate  float64 // queries/second (paper: ~38k)
	Clients     int     // distinct sources (paper: ~1M; scale down)
	DOFraction  float64 // queries with DNSSEC-OK (paper: 0.723 in 2016)
	TCPFraction float64 // sources using TCP (paper: 0.03)
	Start       time.Time
	Seed        int64
	// RateWobble is the relative amplitude of rate variation over time
	// (B-Root rates vary; 0.15 reproduces a similar spread).
	RateWobble float64
	// TLDs seeds the query-name tails; DefaultTLDs when empty.
	TLDs []string
}

// ClientSkew builds per-client query counts matching Fig 15c: the
// busiest 1% of clients carry ~75% of the load and ~81% of clients send
// fewer than 10 queries. Counts sum to approximately total.
func ClientSkew(clients, total int, rng *rand.Rand) []int {
	if clients <= 0 || total <= 0 {
		return nil
	}
	counts := make([]int, clients)
	busy := clients / 100
	if busy == 0 {
		busy = 1
	}
	inactive := clients * 81 / 100
	middle := clients - busy - inactive
	if middle < 0 {
		middle = 0
		inactive = clients - busy
	}

	busyTotal := total * 3 / 4
	i := 0
	for ; i < busy; i++ {
		counts[i] = busyTotal / busy
	}
	inactiveTotal := 0
	for j := 0; j < inactive; j++ {
		counts[i] = 1 + rng.Intn(9)
		inactiveTotal += counts[i]
		i++
	}
	rest := total - busyTotal - inactiveTotal
	if rest < 0 {
		rest = 0
	}
	if middle > 0 {
		// Log-uniform raw weights scaled so the middle group consumes
		// exactly the remaining load, keeping the top-1% share at ~75%.
		raw := make([]float64, middle)
		var rawSum float64
		for j := range raw {
			raw[j] = math.Exp(math.Log(10) + rng.Float64()*(math.Log(250)-math.Log(10)))
			rawSum += raw[j]
		}
		assigned := 0
		for j := 0; j < middle; j++ {
			c := int(raw[j] / rawSum * float64(rest))
			if c < 10 {
				c = 10 // stay out of the "<10 queries" inactive band
			}
			counts[i] = c
			assigned += c
			i++
		}
		rest -= assigned
	}
	if busy > 0 && rest > 0 {
		counts[0] += rest
	}
	return counts
}

// BRootModel synthesizes a root-server trace.
func BRootModel(cfg BRootConfig) *trace.Trace {
	if cfg.Start.IsZero() {
		cfg.Start = DefaultStart
	}
	if cfg.MedianRate <= 0 {
		cfg.MedianRate = 1000
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 2000
	}
	if cfg.DOFraction == 0 {
		cfg.DOFraction = 0.723
	}
	if cfg.TCPFraction == 0 {
		cfg.TCPFraction = 0.03
	}
	if cfg.RateWobble == 0 {
		cfg.RateWobble = 0.15
	}
	tlds := cfg.TLDs
	if len(tlds) == 0 {
		tlds = defaultTLDs
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	total := int(cfg.MedianRate * cfg.Duration.Seconds())
	counts := ClientSkew(cfg.Clients, total, rng)

	// Client address plan and per-client protocol choice: protocol rides
	// with the source host, and hosts are marked TCP in random order until
	// the TCP share of *queries* reaches the configured fraction, so the
	// trace-level mix matches at any scale.
	addrs := make([]netip.Addr, cfg.Clients)
	for i := range addrs {
		addrs[i] = clientAddr(i)
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	protos := make([]trace.Proto, cfg.Clients)
	order := rng.Perm(cfg.Clients)
	tcpBudget := int(cfg.TCPFraction * float64(sum))
	for _, i := range order {
		if tcpBudget <= 0 {
			break
		}
		if counts[i] > tcpBudget {
			continue // a busier host would overshoot the share
		}
		protos[i] = trace.TCP
		tcpBudget -= counts[i]
	}

	// Per-client query counts: expand the counts into a shuffled
	// assignment sequence instead of sampling with replacement. The
	// counts are exact only while the rate curve below draws exactly
	// MedianRate × Duration events: past the end pickClient wraps round
	// to the sequence's start, and short of it the tail goes unused
	// (the 18 s, 20 kq/s trace draws 400 324 events against 360 000
	// assignments).
	clientSeq := make([]int32, 0, sum)
	for i, c := range counts {
		for k := 0; k < c; k++ {
			clientSeq = append(clientSeq, int32(i))
		}
	}
	rng.Shuffle(len(clientSeq), func(i, j int) {
		clientSeq[i], clientSeq[j] = clientSeq[j], clientSeq[i]
	})
	seqPos := 0
	pickClient := func() int {
		if len(clientSeq) == 0 {
			return 0
		}
		c := clientSeq[seqPos%len(clientSeq)]
		seqPos++
		return int(c)
	}

	// Per-second rate curve: median modulated by a slow sinusoid plus
	// noise, reproducing B-Root's rate variation.
	secs := int(cfg.Duration.Seconds())
	if secs < 1 {
		secs = 1
	}
	tr := &trace.Trace{Events: make([]*trace.Event, 0, total)}
	var b builder
	for s := 0; s < secs; s++ {
		phase := 2 * math.Pi * float64(s) / math.Max(60, float64(secs))
		rate := cfg.MedianRate * (1 + cfg.RateWobble*math.Sin(phase) + 0.05*rng.NormFloat64())
		if rate < 1 {
			rate = 1
		}
		n := int(rate)
		// Uniform spread with jitter inside the second.
		for k := 0; k < n; k++ {
			at := cfg.Start.Add(time.Duration(s)*time.Second +
				time.Duration((float64(k)+rng.Float64())/float64(n)*float64(time.Second)))
			ci := pickClient()
			do := rng.Float64() < cfg.DOFraction
			qtype := b.rootQuery(rng, tlds)
			tr.Events = append(tr.Events, b.query(at,
				netip.AddrPortFrom(addrs[ci], ephemeralPort(rng)),
				qtype, do, protos[ci]))
		}
	}
	return tr
}

// RecConfig parameterizes the department-recursive model (Rec-17).
type RecConfig struct {
	Duration time.Duration
	Queries  int
	Clients  int
	Zones    []dnsmsg.Name // names queried; hierarchy SLDs fit here
	Start    time.Time
	Seed     int64
}

// RecModel synthesizes a recursive-server workload: few clients, low
// rate, bursty inter-arrivals, names spread over many zones.
func RecModel(cfg RecConfig) *trace.Trace {
	if cfg.Start.IsZero() {
		cfg.Start = DefaultStart
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 91
	}
	if cfg.Queries <= 0 {
		cfg.Queries = 20000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mean := cfg.Duration.Seconds() / float64(cfg.Queries)
	tr := &trace.Trace{Events: make([]*trace.Event, 0, cfg.Queries)}
	var b builder
	at := cfg.Start
	for i := 0; i < cfg.Queries; i++ {
		// Exponential inter-arrivals give the bursty look of real
		// recursive traffic.
		at = at.Add(time.Duration(rng.ExpFloat64() * mean * float64(time.Second)))
		if len(cfg.Zones) > 0 {
			z := cfg.Zones[zipfIndex(rng, len(cfg.Zones))]
			b.name = append(append(b.name[:0], hostNames[rng.Intn(len(hostNames))]...), '.')
			b.name = append(b.name, z...)
		} else {
			// h<i%8>.example<n>.com.
			b.name = append(strconv.AppendInt(append(b.name[:0], 'h'), int64(i%8), 10), ".example"...)
			b.name = append(strconv.AppendInt(b.name, int64(rng.Intn(50)), 10), ".com."...)
		}
		tr.Events = append(tr.Events, b.query(at,
			netip.AddrPortFrom(clientAddr(zipfIndex(rng, cfg.Clients)), ephemeralPort(rng)),
			pickQType(rng), rng.Float64() < 0.5, trace.UDP))
	}
	return tr
}

// --- shared pieces ---

var defaultTLDs = []string{"com", "net", "org", "edu", "gov", "io", "de", "uk", "jp", "cn"}

var hostNames = []string{"www", "api", "cdn", "mail", "db", "shop", "dev", "imap"}

// rootQuery picks a query a root server would see: mostly names below
// TLDs (answered with referrals), some junk that gets NXDOMAIN, a few
// direct TLD/root queries. It spells the name into b.name.
func (b *builder) rootQuery(rng *rand.Rand, tlds []string) dnsmsg.Type {
	r := rng.Float64()
	switch {
	case r < 0.70:
		// <host>.dom<n>.<tld>.
		tld := tlds[rng.Intn(len(tlds))]
		b.name = append(append(b.name[:0], hostNames[rng.Intn(len(hostNames))]...), ".dom"...)
		b.name = append(strconv.AppendInt(b.name, int64(rng.Intn(5000)), 10), '.')
		b.name = append(append(b.name, tld...), '.')
		return pickQType(rng)
	case r < 0.85:
		// Chromium-style junk and leaked local names: NXDOMAIN at the root
		// (junk<n>.local<m>.).
		b.name = append(strconv.AppendInt(append(b.name[:0], "junk"...), int64(rng.Intn(100000)), 10), ".local"...)
		b.name = append(strconv.AppendInt(b.name, int64(rng.Intn(100)), 10), '.')
		return dnsmsg.TypeA
	case r < 0.95:
		b.name = append(append(b.name[:0], tlds[rng.Intn(len(tlds))]...), '.')
		return dnsmsg.TypeNS
	default:
		b.name = append(b.name[:0], '.')
		return dnsmsg.TypeDNSKEY
	}
}

func pickQType(rng *rand.Rand) dnsmsg.Type {
	r := rng.Float64()
	switch {
	case r < 0.60:
		return dnsmsg.TypeA
	case r < 0.85:
		return dnsmsg.TypeAAAA
	case r < 0.89:
		return dnsmsg.TypeMX
	case r < 0.93:
		return dnsmsg.TypeNS
	case r < 0.96:
		return dnsmsg.TypeTXT
	case r < 0.98:
		return dnsmsg.TypeSOA
	default:
		return dnsmsg.TypePTR
	}
}

// clientAddr maps an index to a deterministic client address. Indexes
// below 2^16 map into 100.64/16-ish space; larger spill into 100.65+.
func clientAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{100, byte(64 + i>>16), byte(i >> 8), byte(i)})
}

func ephemeralPort(rng *rand.Rand) uint16 {
	return uint16(16384 + rng.Intn(45000))
}

// zipfIndex draws an index in [0,n) with a Zipf-ish 1/(k+1) weighting.
func zipfIndex(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF on the harmonic distribution via rejection-free
	// approximation: u^2 skews toward 0.
	u := rng.Float64()
	return int(u * u * float64(n))
}

// Slab sizes for generated traces: one wire slab holds ≈ 1400 queries
// and one event chunk 1024 events, so a 400 k-query trace costs a few
// hundred allocations instead of two per query. maxQuery bounds one
// query's wire: header, question and OPT record.
const (
	wireSlab   = 64 << 10
	eventChunk = 1024
	maxQuery   = 12 + dnsmsg.MaxNameLen + 4 + 11
)

// builder writes generated queries exact-size into shared slabs. Each
// query is encoded by dnsmsg.AppendQuery straight from the name spelled
// in b.name onto the end of the current wire slab, with no Name, Msg or
// scratch copy on the way; the event's Wire is that stretch as a
// cap-limited sub-slice, so an in-place SetID or an append on one event
// can never touch its neighbour. The Event itself comes out of an
// []trace.Event chunk. A query thus costs its ≈ 45 wire bytes and one
// Event slot. A retained event keeps its chunk and slab alive, which is
// the trace's own lifetime anyway. The zero value is ready to use.
type builder struct {
	name   []byte // spells out each generated query name, without fmt
	wire   []byte
	events []trace.Event
}

// query builds one event for the name in b.name. Its bytes equal those
// of a fresh Msg with the same fields through Pack, so traces stay
// byte-identical per seed.
func (b *builder) query(at time.Time, src netip.AddrPort, qtype dnsmsg.Type, do bool, proto trace.Proto) *trace.Event {
	if cap(b.wire)-len(b.wire) < maxQuery {
		b.wire = make([]byte, 0, wireSlab)
	}
	var udpSize uint16
	if do {
		udpSize = 4096
	}
	off := len(b.wire)
	wire, err := dnsmsg.AppendQuery(b.wire, uint16(at.UnixNano()), b.name, qtype, udpSize, do)
	if err != nil {
		panic(err) // generated names are always valid
	}
	b.wire = wire
	if len(b.events) == cap(b.events) {
		b.events = make([]trace.Event, 0, eventChunk)
	}
	b.events = append(b.events, trace.Event{
		Time: at, Src: src, Dst: ServerAddr, Proto: proto,
		Wire: b.wire[off:len(b.wire):len(b.wire)],
	})
	return &b.events[len(b.events)-1]
}

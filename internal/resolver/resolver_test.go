package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldplayer/internal/cache"
	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/server"
	"ldplayer/internal/zone"
)

// testHierarchy wires three authoritative zones (root, com, example.com)
// to distinct server addresses, exactly the multi-level shape the
// resolver walks in production.
type testHierarchy struct {
	servers   map[netip.AddrPort]*server.Server
	exchanges atomic.Int64
}

var (
	rootAddr = netip.MustParseAddrPort("198.41.0.4:53")
	comAddr  = netip.MustParseAddrPort("192.5.6.30:53")
	exAddr   = netip.MustParseAddrPort("192.0.2.53:53")
)

const rootZoneText = `
$ORIGIN .
$TTL 86400
@ IN SOA a.root-servers.net. nstld. 1 1800 900 604800 86400
@ IN NS a.root-servers.net.
a.root-servers.net. IN A 198.41.0.4
com. IN NS a.gtld-servers.net.
a.gtld-servers.net. IN A 192.5.6.30
`

const comZoneText = `
$ORIGIN com.
$TTL 172800
@ IN SOA a.gtld-servers.net. nstld. 1 1800 900 604800 86400
@ IN NS a.gtld-servers.net.
example IN NS ns1.example.com.
ns1.example.com. IN A 192.0.2.53
glueless IN NS www.example.com.
`

const exZoneText = `
$ORIGIN example.com.
$TTL 300
@ IN SOA ns1 admin 1 7200 3600 1209600 60
@ IN NS ns1
ns1 IN A 192.0.2.53
www IN A 192.0.2.80
alias IN CNAME www
`

func newHierarchy(t testing.TB) *testHierarchy {
	t.Helper()
	return &testHierarchy{servers: map[netip.AddrPort]*server.Server{
		rootAddr: authServer(t, rootZoneText),
		comAddr:  authServer(t, comZoneText),
		exAddr:   authServer(t, exZoneText),
	}}
}

// authServer is an authoritative server for the zones in texts (none:
// it refuses everything).
func authServer(t testing.TB, texts ...string) *server.Server {
	t.Helper()
	s := server.New(server.Config{})
	for _, text := range texts {
		z, err := zone.ParseString(text, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddZone(z); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func (h *testHierarchy) Exchange(_ context.Context, srv netip.AddrPort, q *dnsmsg.Msg) (*dnsmsg.Msg, error) {
	h.exchanges.Add(1)
	s, ok := h.servers[srv]
	if !ok {
		return nil, errors.New("no route to server")
	}
	return s.HandleQuery(srv.Addr(), q, 0), nil
}

func newResolver(t testing.TB, h *testHierarchy, tap Tap) *Resolver {
	t.Helper()
	r, err := New(Config{
		Roots:    []netip.AddrPort{rootAddr},
		Exchange: h,
		EDNSSize: 4096,
		Tap:      tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIterativeResolution(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	m, err := r.Resolve(context.Background(), "www.example.com.", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rcode != dnsmsg.RcodeSuccess || len(m.Answer) != 1 {
		t.Fatalf("answer=%+v", m)
	}
	if a := m.Answer[0].Data.(dnsmsg.A); a.Addr.String() != "192.0.2.80" {
		t.Errorf("addr=%v", a.Addr)
	}
	// Cold-cache walk: root referral + com referral + final answer.
	if n := h.exchanges.Load(); n != 3 {
		t.Errorf("exchanges=%d want 3", n)
	}
}

func TestCachingCutsUpstream(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	ctx := context.Background()
	if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	before := h.exchanges.Load()
	if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if h.exchanges.Load() != before {
		t.Error("cached answer still hit upstream")
	}
	// Flushing the cache forces a fresh walk — the paper's cold-cache mode.
	r.Cache().Flush()
	if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if h.exchanges.Load() == before {
		t.Error("flush did not force re-resolution")
	}
}

func TestCNAMEChase(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	m, err := r.Resolve(context.Background(), "alias.example.com.", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	var hasCNAME, hasA bool
	for _, rr := range m.Answer {
		switch rr.Type {
		case dnsmsg.TypeCNAME:
			hasCNAME = true
		case dnsmsg.TypeA:
			hasA = true
		}
	}
	if !hasCNAME || !hasA {
		t.Errorf("CNAME chain incomplete: %+v", m.Answer)
	}
}

func TestNXDomain(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	m, err := r.Resolve(context.Background(), "nope.example.com.", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rcode != dnsmsg.RcodeNXDomain {
		t.Fatalf("rcode=%v", m.Rcode)
	}
}

func TestGluelessDelegation(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	// glueless.com delegates to ns1.example.com with no glue in the com
	// zone response: the resolver must resolve the NS name itself before
	// it can contact the delegated server. That server is not
	// authoritative for glueless.com, so the walk ends in REFUSED — but
	// the side resolution of ns1.example.com must have happened, which
	// takes strictly more exchanges than a direct glued walk (3).
	_, err := r.Resolve(context.Background(), "anything.glueless.com.", dnsmsg.TypeA)
	if err == nil {
		t.Fatal("want failure: the glue-less target has no server")
	}
	if n := h.exchanges.Load(); n <= 3 {
		t.Errorf("exchanges=%d: glue-less NS resolution did not happen", n)
	}
}

// stubAsk sends one stub query for (name, A) through HandleStub.
func stubAsk(r *Resolver, name dnsmsg.Name) *dnsmsg.Msg {
	q := &dnsmsg.Msg{ID: 7, RecursionDesired: true}
	q.SetQuestion(name, dnsmsg.TypeA)
	return r.HandleStub(context.Background(), q)
}

// TestGluelessInZoneNSFails: a delegation whose only nameserver lies
// inside the delegated zone, with no glue, can only be reached through
// itself. The stub gets SERVFAIL after the root and com exchanges.
func TestGluelessInZoneNSFails(t *testing.T) {
	h := newHierarchy(t)
	h.servers[comAddr] = authServer(t, comZoneText+"self IN NS ns.self.com.\n")
	r := newResolver(t, h, nil)
	if resp := stubAsk(r, "www.self.com."); resp.Rcode != dnsmsg.RcodeServFail {
		t.Fatalf("rcode=%v want SERVFAIL", resp.Rcode)
	}
	if n := h.exchanges.Load(); n != 2 {
		t.Errorf("exchanges=%d want 2 (root, com)", n)
	}
}

// netZoneText is a net TLD served beside com, for cross-TLD delegations.
const netZoneText = `
$ORIGIN net.
$TTL 172800
@ IN SOA a.gtld-servers.net. nstld. 1 1800 900 604800 86400
@ IN NS a.gtld-servers.net.
a.gtld-servers.net. IN A 192.5.6.30
`

// TestGluelessMutualNSFails: a.com's only nameserver is ns.b.net and
// b.net's is ns.a.com, neither with glue. Each name needs the other to
// resolve; the nesting bound ends the chase in SERVFAIL after a bounded
// number of exchanges, and resolver.glueless.depth_exceeded counts it.
func TestGluelessMutualNSFails(t *testing.T) {
	h := newHierarchy(t)
	h.servers[rootAddr] = authServer(t, rootZoneText+"net. IN NS a.gtld-servers.net.\n")
	h.servers[comAddr] = authServer(t, comZoneText+"a IN NS ns.b.net.\n", netZoneText+"b IN NS ns.a.com.\n")
	r := newResolver(t, h, nil)
	exceeded := obsGluelessDepthExceeded.Value()
	if resp := stubAsk(r, "www.a.com."); resp.Rcode != dnsmsg.RcodeServFail {
		t.Fatalf("rcode=%v want SERVFAIL", resp.Rcode)
	}
	// Root and com, then one referral per nested name (the first through
	// root and net), the last refused for depth.
	if n, most := h.exchanges.Load(), int64(2+1+maxGlueless); n != most {
		t.Errorf("exchanges=%d want %d", n, most)
	}
	if d := obsGluelessDepthExceeded.Value() - exceeded; d != 1 {
		t.Errorf("resolver.glueless.depth_exceeded moved by %d, want 1", d)
	}
}

func TestTapSeesAllExchanges(t *testing.T) {
	h := newHierarchy(t)
	var taps []netip.AddrPort
	r := newResolver(t, h, func(srv netip.AddrPort, q, resp *dnsmsg.Msg) {
		taps = append(taps, srv)
	})
	if _, err := r.Resolve(context.Background(), "www.example.com.", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if len(taps) != 3 || taps[0] != rootAddr || taps[1] != comAddr || taps[2] != exAddr {
		t.Errorf("tap sequence=%v", taps)
	}
}

func TestResolverConfigValidation(t *testing.T) {
	if _, err := New(Config{Exchange: ExchangeFunc(nil)}); !errors.Is(err, ErrNoRoots) {
		t.Errorf("want ErrNoRoots, got %v", err)
	}
	if _, err := New(Config{Roots: []netip.AddrPort{rootAddr}}); err == nil {
		t.Error("nil exchanger accepted")
	}
}

var loopAddr = netip.MustParseAddrPort("203.0.113.1:53")

// referralTo answers every query with a glued referral to zone, served
// at loopAddr, and counts the exchanges.
func referralTo(zone dnsmsg.Name, exchanges *int) ExchangeFunc {
	return func(_ context.Context, srv netip.AddrPort, q *dnsmsg.Msg) (*dnsmsg.Msg, error) {
		*exchanges++
		var m dnsmsg.Msg
		m.SetReply(q)
		m.Authority = []dnsmsg.RR{{Name: zone, Type: dnsmsg.TypeNS, Class: dnsmsg.ClassINET, TTL: 60,
			Data: dnsmsg.NS{Host: "ns.loop.test."}}}
		m.Additional = []dnsmsg.RR{{Name: "ns.loop.test.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 60,
			Data: dnsmsg.A{Addr: loopAddr.Addr()}}}
		return &m, nil
	}
}

func TestReferralLoopDetected(t *testing.T) {
	// A zone that delegates to itself forever.
	var exchanges int
	r, err := New(Config{Roots: []netip.AddrPort{loopAddr}, Exchange: referralTo("loop.test.", &exchanges)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(context.Background(), "x.loop.test.", dnsmsg.TypeA); !errors.Is(err, ErrLoop) {
		t.Errorf("want ErrLoop, got %v", err)
	}
	// The next walk starts at the cached loop.test. cut, and a referral
	// back to it is still a loop — found on the first exchange.
	exchanges = 0
	if _, err := r.Resolve(context.Background(), "y.loop.test.", dnsmsg.TypeA); !errors.Is(err, ErrLoop) {
		t.Errorf("from the cached cut: want ErrLoop, got %v", err)
	}
	if exchanges != 1 {
		t.Errorf("exchanges=%d want 1", exchanges)
	}
}

// TestReferralMustDescend: a referral upward or sideways of the question
// ends the walk and plants no delegation in the cache.
func TestReferralMustDescend(t *testing.T) {
	for _, zone := range []dnsmsg.Name{dnsmsg.Root, "other.test."} {
		var exchanges int
		r, err := New(Config{Roots: []netip.AddrPort{loopAddr}, Exchange: referralTo(zone, &exchanges)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Resolve(context.Background(), "x.loop.test.", dnsmsg.TypeA); !errors.Is(err, ErrLoop) || exchanges != 1 {
			t.Errorf("referral to %s: err=%v after %d exchanges, want ErrLoop after 1", zone, err, exchanges)
		}
		if e, _ := r.Cache().Get(cache.Key{Name: zone, Delegation: true}); e != nil {
			t.Errorf("referral to %s was cached", zone)
		}
	}
}

func TestAllServersFailing(t *testing.T) {
	ex := ExchangeFunc(func(_ context.Context, _ netip.AddrPort, _ *dnsmsg.Msg) (*dnsmsg.Msg, error) {
		return nil, errors.New("network unreachable")
	})
	r, err := New(Config{Roots: []netip.AddrPort{rootAddr}, Exchange: ex})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(context.Background(), "x.test.", dnsmsg.TypeA); err == nil {
		t.Error("resolution succeeded with dead upstreams")
	}
}

func TestNegativeCaching(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	ctx := context.Background()
	// First NXDOMAIN walks the hierarchy.
	if m, err := r.Resolve(ctx, "missing.example.com.", dnsmsg.TypeA); err != nil || m.Rcode != dnsmsg.RcodeNXDomain {
		t.Fatalf("m=%v err=%v", m, err)
	}
	before := h.exchanges.Load()
	// Second identical query must come from the negative cache (RFC 2308).
	m, err := r.Resolve(ctx, "missing.example.com.", dnsmsg.TypeA)
	if err != nil || m.Rcode != dnsmsg.RcodeNXDomain {
		t.Fatalf("cached m=%v err=%v", m, err)
	}
	if h.exchanges.Load() != before {
		t.Error("negative answer not cached")
	}
	// The cached negative carries the SOA in authority.
	foundSOA := false
	for _, rr := range m.Authority {
		if rr.Type == dnsmsg.TypeSOA {
			foundSOA = true
		}
	}
	if !foundSOA {
		t.Error("cached NXDOMAIN lost its SOA")
	}
}

func TestNoDataCaching(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	ctx := context.Background()
	// www.example.com has A but no MX: NODATA.
	if m, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeMX); err != nil || m.Rcode != dnsmsg.RcodeSuccess || len(m.Answer) != 0 {
		t.Fatalf("m=%+v err=%v", m, err)
	}
	before := h.exchanges.Load()
	if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeMX); err != nil {
		t.Fatal(err)
	}
	if h.exchanges.Load() != before {
		t.Error("NODATA not cached")
	}
	// A different qtype for the same name is a different cache key, so it
	// goes upstream — straight to example.com.'s server, whose delegation
	// the first walk cached.
	for _, qtype := range []dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeAAAA} {
		before := h.exchanges.Load()
		if _, err := r.Resolve(ctx, "www.example.com.", qtype); err != nil {
			t.Fatal(err)
		}
		if n := h.exchanges.Load() - before; n != 1 {
			t.Errorf("%v after MX: %d exchanges, want 1", qtype, n)
		}
	}
}

// tapServers records the server of every upstream exchange into taps.
func tapServers(taps *[]netip.AddrPort) Tap {
	return func(srv netip.AddrPort, _, _ *dnsmsg.Msg) { *taps = append(*taps, srv) }
}

// TestWalkResumesAtClosestCut: once a walk has followed the root and com
// referrals, a miss under example.com. costs one exchange with its
// server, and a miss elsewhere under com. one exchange with com's.
func TestWalkResumesAtClosestCut(t *testing.T) {
	h := newHierarchy(t)
	var taps []netip.AddrPort
	r := newResolver(t, h, tapServers(&taps))
	ctx := context.Background()
	if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   dnsmsg.Name
		rcode  dnsmsg.Rcode
		server netip.AddrPort
	}{
		{"mail.example.com.", dnsmsg.RcodeNXDomain, exAddr},
		{"ns1.example.com.", dnsmsg.RcodeSuccess, exAddr},
		{"other.com.", dnsmsg.RcodeNXDomain, comAddr},
		{"www.other.com.", dnsmsg.RcodeNXDomain, comAddr},
	} {
		taps = nil
		m, err := r.Resolve(ctx, tc.name, dnsmsg.TypeA)
		if err != nil || m.Rcode != tc.rcode {
			t.Errorf("%s: m=%v err=%v, want %v", tc.name, m, err, tc.rcode)
		}
		if len(taps) != 1 || taps[0] != tc.server {
			t.Errorf("%s: exchanges %v, want [%v]", tc.name, taps, tc.server)
		}
	}
}

// TestDelegationExpiresWithNSTTL: a cut lives as long as the NS and glue
// records it rests on — 86 400 s for com. (root zone), 172 800 s for
// example.com. (com zone) — not as long as the 300 s answers below it.
func TestDelegationExpiresWithNSTTL(t *testing.T) {
	h := newHierarchy(t)
	var taps []netip.AddrPort
	r := newResolver(t, h, tapServers(&taps))
	now := time.Unix(1_000_000_000, 0)
	r.Cache().SetClock(func() time.Time { return now })
	ctx := context.Background()
	for _, step := range []struct {
		advance time.Duration
		want    []netip.AddrPort
	}{
		{0, []netip.AddrPort{rootAddr, comAddr, exAddr}},
		{301 * time.Second, []netip.AddrPort{exAddr}},
		{100_000 * time.Second, []netip.AddrPort{exAddr}}, // com. has expired, example.com. has not
		{172_800 * time.Second, []netip.AddrPort{rootAddr, comAddr, exAddr}},
	} {
		now = now.Add(step.advance)
		taps = nil
		if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeA); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(taps, step.want) {
			t.Errorf("+%v: exchanges %v, want %v", step.advance, taps, step.want)
		}
	}
}

// TestFlushRestoresColdWalk: Flush drops delegations with the answers,
// so the next walk is root → com → example.com. again.
func TestFlushRestoresColdWalk(t *testing.T) {
	h := newHierarchy(t)
	var taps []netip.AddrPort
	r := newResolver(t, h, tapServers(&taps))
	ctx := context.Background()
	if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	r.Cache().Flush()
	taps = nil
	if _, err := r.Resolve(ctx, "mail.example.com.", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if want := []netip.AddrPort{rootAddr, comAddr, exAddr}; !slices.Equal(taps, want) {
		t.Errorf("after Flush: exchanges %v, want %v", taps, want)
	}
}

// TestStubNeverGetsDelegation: the questions closest to a cached cut's
// key, (cut, NS) and (cut, 0), are asked upstream, never answered from
// the delegation entry.
func TestStubNeverGetsDelegation(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	ctx := context.Background()
	if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	before := h.exchanges.Load()
	m, err := r.Resolve(ctx, "example.com.", dnsmsg.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answer) != 1 || m.Answer[0].Type != dnsmsg.TypeNS {
		t.Errorf("(example.com., NS) answer=%v, want the zone's NS record", m.Answer)
	}
	if n := h.exchanges.Load() - before; n != 1 {
		t.Errorf("(example.com., NS): %d exchanges, want 1", n)
	}
	before = h.exchanges.Load()
	_, _ = r.Resolve(ctx, "example.com.", 0) // whatever the server says, it must be asked
	if n := h.exchanges.Load() - before; n != 1 {
		t.Errorf("(example.com., 0): %d exchanges, want 1", n)
	}
}

// TestWalkCountersAttributeMisses: every answer-cache miss counts once in
// resolver.walk.from_root or resolver.walk.from_cut; hits count in
// neither.
func TestWalkCountersAttributeMisses(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	ctx := context.Background()
	for _, step := range []struct {
		name      dnsmsg.Name
		flush     bool
		root, cut uint64
	}{
		{name: "www.example.com.", root: 1},
		{name: "www.example.com."}, // answer hit
		{name: "mail.example.com.", cut: 1},
		{name: "alias.example.com.", cut: 1}, // the CNAME target comes in the same answer
		// From the root; the glue-less NS name www.example.com. is a second
		// miss, walked from the com. cut the first walk just learned.
		{name: "anything.glueless.com.", flush: true, root: 1, cut: 1},
	} {
		if step.flush {
			r.Cache().Flush()
		}
		misses, root, cut := obsCacheMisses.Value(), obsWalkFromRoot.Value(), obsWalkFromCut.Value()
		_, _ = r.Resolve(ctx, step.name, dnsmsg.TypeA)
		misses, root, cut = obsCacheMisses.Value()-misses, obsWalkFromRoot.Value()-root, obsWalkFromCut.Value()-cut
		if root != step.root || cut != step.cut || root+cut != misses {
			t.Errorf("%s: from_root=%d from_cut=%d misses=%d, want %d/%d/%d",
				step.name, root, cut, misses, step.root, step.cut, step.root+step.cut)
		}
	}
}

// TestLameCutReDelegated: example.com. moves to a new server after the
// first walk. The cached cut's old address fails (unreachable, or
// REFUSED by a server no longer authoritative), so the resolver forgets
// it, re-learns the delegation from com., and the stub gets its answer.
func TestLameCutReDelegated(t *testing.T) {
	newAddr := netip.MustParseAddrPort("192.0.2.54:53")
	movedCom := strings.Replace(comZoneText, "IN A 192.0.2.53", "IN A 192.0.2.54", 1)
	for _, tc := range []struct {
		name string
		old  *server.Server
	}{
		{"unreachable", nil},
		{"refused", server.New(server.Config{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHierarchy(t)
			var taps []netip.AddrPort
			r := newResolver(t, h, tapServers(&taps))
			ctx := context.Background()
			if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeA); err != nil {
				t.Fatal(err)
			}
			h.servers[newAddr] = h.servers[exAddr]
			h.servers[comAddr] = authServer(t, movedCom)
			delete(h.servers, exAddr)
			if tc.old != nil {
				h.servers[exAddr] = tc.old
			}

			taps = nil
			m, err := r.Resolve(ctx, "mail.example.com.", dnsmsg.TypeA)
			if err != nil || m.Rcode != dnsmsg.RcodeNXDomain {
				t.Fatalf("after the move: m=%v err=%v, want NXDOMAIN", m, err)
			}
			if n := len(taps); n < 2 || taps[n-2] != comAddr || taps[n-1] != newAddr {
				t.Errorf("after the move: exchanges %v, want to end [%v %v]", taps, comAddr, newAddr)
			}
			// The re-learned cut is cached in place of the lame one.
			taps = nil
			if _, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeAAAA); err != nil {
				t.Fatal(err)
			}
			if len(taps) != 1 || taps[0] != newAddr {
				t.Errorf("next miss: exchanges %v, want [%v]", taps, newAddr)
			}
		})
	}
}

// TestConcurrentWalksShareCuts (run under -race): 64 goroutines resolve
// distinct names under shared cuts at once.
func TestConcurrentWalksShareCuts(t *testing.T) {
	h := newHierarchy(t)
	r := newResolver(t, h, nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := range 64 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := dnsmsg.Name(fmt.Sprintf("h%d.example.com.", i))
			if i%2 == 1 {
				name = dnsmsg.Name(fmt.Sprintf("h%d.com.", i))
			}
			m, err := r.Resolve(ctx, name, dnsmsg.TypeA)
			if err != nil || m.Rcode != dnsmsg.RcodeNXDomain {
				errs <- fmt.Errorf("%s: m=%v err=%v", name, m, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Walks racing the first referrals may each go from the root; none
	// costs more than the cold walk.
	if n := h.exchanges.Load(); n > 3*64 {
		t.Errorf("exchanges=%d for 64 names", n)
	}
	before := h.exchanges.Load()
	if _, err := r.Resolve(ctx, "h64.example.com.", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if n := h.exchanges.Load() - before; n != 1 {
		t.Errorf("after the race: %d exchanges, want 1", n)
	}
}

package server

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
)

// viewForScan is the linear first-match scan the indexed viewFor
// replaced, kept as its oracle: the first registered view that matches
// src wins.
func (s *Server) viewForScan(src netip.Addr) *View {
	for _, v := range s.views {
		if v.Matches(src) {
			return v
		}
	}
	return nil
}

// viewAddrPool draws addresses from small ranges so that views overlap:
// the same address listed by several views, addresses inside other
// views' prefixes, and IPv4 addresses beside their 4-in-6 forms (which
// are distinct addresses to both the index and netip.Prefix).
func viewAddrPool(rng *rand.Rand) netip.Addr {
	switch rng.Intn(4) {
	case 0, 1:
		return netip.AddrFrom4([4]byte{10, byte(rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(8))})
	case 2:
		var b [16]byte
		b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
		b[6] = byte(rng.Intn(3))
		b[15] = byte(rng.Intn(8))
		return netip.AddrFrom16(b)
	default:
		v4 := [4]byte{10, byte(rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(8))}
		return netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: v4[0], 13: v4[1], 14: v4[2], 15: v4[3]})
	}
}

func randomView(rng *rand.Rand, i int) *View {
	if rng.Intn(8) == 0 {
		return NewView(fmt.Sprintf("all%d", i), nil, nil)
	}
	var addrs []netip.Addr
	for n := rng.Intn(4); n > 0; n-- {
		addrs = append(addrs, viewAddrPool(rng))
	}
	var prefixes []netip.Prefix
	if rng.Intn(3) == 0 {
		a := viewAddrPool(rng)
		bits := a.BitLen() - 8*(1+rng.Intn(2))
		prefixes = append(prefixes, netip.PrefixFrom(a, bits).Masked())
	}
	if len(addrs) == 0 && len(prefixes) == 0 {
		addrs = append(addrs, viewAddrPool(rng))
	}
	return NewView(fmt.Sprintf("v%d", i), addrs, prefixes)
}

// TestViewForMatchesScan holds the indexed viewFor to the linear scan
// over random mixes of exact, prefix and match-all views, probed with
// addresses from the pool the views draw on plus one no view lists.
func TestViewForMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		s := New(Config{})
		for i, n := 0, 1+rng.Intn(24); i < n; i++ {
			s.AddView(randomView(rng, i))
		}
		for probe := 0; probe < 200; probe++ {
			src := viewAddrPool(rng)
			if probe%50 == 0 {
				src = netip.MustParseAddr("203.0.113.7")
			}
			if got, want := s.viewFor(src), s.viewForScan(src); got != want {
				t.Fatalf("trial %d: viewFor(%v) = %v, scan = %v", trial, src, viewName(got), viewName(want))
			}
		}
	}
}

// TestViewForFirstMatchOrder pins the registration-order cases the
// index has to special-case.
func TestViewForFirstMatchOrder(t *testing.T) {
	a := netip.MustParseAddr("10.0.0.1")
	s := New(Config{})
	first := NewView("first", []netip.Addr{a}, nil)
	dup := NewView("dup", []netip.Addr{a}, nil)
	net10 := NewView("net10", nil, []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")})
	all := NewView("all", nil, nil)
	s.AddView(net10)
	s.AddView(first)
	s.AddView(dup)
	s.AddView(all)
	if got := s.viewFor(a); got != net10 {
		t.Errorf("prefix view registered first: got %s", viewName(got))
	}
	s = New(Config{})
	s.AddView(first)
	s.AddView(dup)
	s.AddView(net10)
	s.AddView(all)
	if got := s.viewFor(a); got != first {
		t.Errorf("duplicate address: got %s, want the first listing view", viewName(got))
	}
	if got := s.viewFor(netip.MustParseAddr("10.9.9.9")); got != net10 {
		t.Errorf("prefix fallback: got %s", viewName(got))
	}
	if got := s.viewFor(netip.MustParseAddr("::ffff:10.0.0.1")); got != all {
		t.Errorf("4-in-6 form: got %s, want the match-all view", viewName(got))
	}
}

func viewName(v *View) string {
	if v == nil {
		return "<nil>"
	}
	return v.Name
}

// BenchmarkViewFor selects among one exact-address view per zone, the
// meta-server's shape, at the paper's hierarchy size and ten times it.
// The cost should be flat in the view count.
func BenchmarkViewFor(b *testing.B) {
	for _, n := range []int{2011, 20110} {
		b.Run(fmt.Sprintf("views=%d", n), func(b *testing.B) {
			s := New(Config{})
			addrs := make([]netip.Addr, n)
			for i := range addrs {
				addrs[i] = netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
				s.AddView(NewView(fmt.Sprint(i), []netip.Addr{addrs[i]}, nil))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.viewFor(addrs[i%n]) == nil {
					b.Fatal("no view")
				}
			}
		})
	}
}

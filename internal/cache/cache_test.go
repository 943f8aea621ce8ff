package cache

import (
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
)

func entryA(ip string, ttl uint32) *Entry {
	return &Entry{
		Rcode: dnsmsg.RcodeSuccess,
		Answer: []dnsmsg.RR{{
			Name: "x.test.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: ttl,
			Data: dnsmsg.A{Addr: netip.MustParseAddr(ip)},
		}},
	}
}

func TestPutGet(t *testing.T) {
	c := New(10)
	key := Key{Name: "x.test.", Type: dnsmsg.TypeA}
	if e, _ := c.Get(key); e != nil {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, entryA("192.0.2.1", 60), time.Minute)
	e, left := c.Get(key)
	if e == nil || left <= 0 || left > time.Minute {
		t.Fatalf("get: %v %v", e, left)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

func TestExpiry(t *testing.T) {
	c := New(10)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	key := Key{Name: "x.test.", Type: dnsmsg.TypeA}
	c.Put(key, entryA("192.0.2.1", 60), time.Minute)
	now = now.Add(59 * time.Second)
	if e, _ := c.Get(key); e == nil {
		t.Fatal("expired early")
	}
	now = now.Add(2 * time.Second)
	if e, _ := c.Get(key); e != nil {
		t.Fatal("survived expiry")
	}
	if c.Len() != 0 {
		t.Error("expired entry not removed")
	}
}

func TestZeroTTLNotCached(t *testing.T) {
	c := New(10)
	key := Key{Name: "x.test.", Type: dnsmsg.TypeA}
	c.Put(key, entryA("192.0.2.1", 0), 0)
	if c.Len() != 0 {
		t.Error("zero-TTL entry cached")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3)
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = Key{Name: dnsmsg.Name(string(rune('a'+i)) + ".test."), Type: dnsmsg.TypeA}
	}
	for i := 0; i < 3; i++ {
		c.Put(keys[i], entryA("192.0.2.1", 60), time.Minute)
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	c.Get(keys[0])
	c.Put(keys[3], entryA("192.0.2.2", 60), time.Minute)
	if e, _ := c.Get(keys[1]); e != nil {
		t.Error("LRU victim survived")
	}
	if e, _ := c.Get(keys[0]); e == nil {
		t.Error("recently used entry evicted")
	}
	_, _, ev := c.Stats()
	if ev != 1 {
		t.Errorf("evictions=%d", ev)
	}
}

func TestReplaceSameKey(t *testing.T) {
	c := New(10)
	key := Key{Name: "x.test.", Type: dnsmsg.TypeA}
	c.Put(key, entryA("192.0.2.1", 60), time.Minute)
	c.Put(key, entryA("192.0.2.2", 60), time.Minute)
	if c.Len() != 1 {
		t.Fatalf("len=%d after replace", c.Len())
	}
	e, _ := c.Get(key)
	if e.Answer[0].Data.(dnsmsg.A).Addr.String() != "192.0.2.2" {
		t.Error("replace kept old value")
	}
}

func TestAdjustedTTL(t *testing.T) {
	e := entryA("192.0.2.1", 300)
	adj := EntryWithAdjustedTTL(e, 42*time.Second)
	if adj.Answer[0].TTL != 42 {
		t.Errorf("adjusted TTL=%d", adj.Answer[0].TTL)
	}
	// Original untouched (deep copy).
	if e.Answer[0].TTL != 300 {
		t.Error("original mutated")
	}
	// TTL never increases.
	adj = EntryWithAdjustedTTL(e, time.Hour)
	if adj.Answer[0].TTL != 300 {
		t.Errorf("TTL raised to %d", adj.Answer[0].TTL)
	}
}

// TestDelegationKeys: a delegation entry shares the cache's TTL, LRU and
// Flush, but no question key reaches it, and probing it leaves Stats alone.
func TestDelegationKeys(t *testing.T) {
	c := New(10)
	cut := Key{Name: "example.test.", Delegation: true}
	c.Put(cut, &Entry{Servers: []netip.AddrPort{netip.MustParseAddrPort("192.0.2.53:53")}}, time.Minute)
	for _, q := range []Key{{Name: "example.test."}, {Name: "example.test.", Type: dnsmsg.TypeNS}} {
		if e, _ := c.Get(q); e != nil {
			t.Errorf("question %+v served the delegation", q)
		}
	}
	if e, _ := c.Get(cut); e == nil || len(e.Servers) != 1 {
		t.Fatalf("delegation lost: %+v", e)
	}
	if hits, misses, _ := c.Stats(); hits != 0 || misses != 2 {
		t.Errorf("hits=%d misses=%d: delegation probes counted", hits, misses)
	}
	c.Delete(cut)
	if e, _ := c.Get(cut); e != nil || c.Len() != 0 {
		t.Error("Delete left the delegation")
	}
}

func TestFlush(t *testing.T) {
	c := New(10)
	c.Put(Key{Name: "x.test.", Type: dnsmsg.TypeA}, entryA("192.0.2.1", 60), time.Minute)
	c.Flush()
	if c.Len() != 0 {
		t.Error("flush left entries")
	}
}

func TestMinTTL(t *testing.T) {
	rrs := []dnsmsg.RR{
		{Name: "a.", Type: dnsmsg.TypeA, TTL: 300, Data: dnsmsg.A{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: "b.", Type: dnsmsg.TypeNS, TTL: 60, Data: dnsmsg.NS{Host: "ns.a."}},
		{Name: ".", Type: dnsmsg.TypeOPT, TTL: 0, Data: dnsmsg.OPT{}}, // ignored
	}
	if got := MinTTL(rrs); got != time.Minute {
		t.Errorf("MinTTL=%v", got)
	}
	if got := MinTTL(nil); got != 0 {
		t.Errorf("MinTTL(nil)=%v", got)
	}
}

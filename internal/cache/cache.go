// Package cache provides the TTL-bounded DNS cache used by the recursive
// resolver. Entries hold whole response sections keyed by (qname, qtype),
// expire on TTL, and are evicted LRU when the cache exceeds its capacity.
// Negative answers (NXDOMAIN, NODATA) are cached per RFC 2308 using the
// SOA minimum. Zone cuts the resolver has learned live in the same cache
// under delegation keys, which no question can produce.
package cache

import (
	"container/list"
	"net/netip"
	"sync"
	"time"

	"ldplayer/internal/dnsmsg"
)

// Key identifies one cached question, or, with Delegation set, the zone
// cut at Name (Type unused). A stub asking (cut, NS) or (cut, 0) builds a
// key with Delegation false, so it can never be handed a delegation.
type Key struct {
	Name       dnsmsg.Name
	Type       dnsmsg.Type
	Delegation bool
}

// Entry is a cached answer: the sections of the response with the rcode.
// TTLs in the records are the originals; Remaining adjusts on read. A
// delegation entry holds the cut's NS RRset in Authority and its
// nameserver addresses in Servers.
type Entry struct {
	Rcode      dnsmsg.Rcode
	Answer     []dnsmsg.RR
	Authority  []dnsmsg.RR
	Additional []dnsmsg.RR
	Servers    []netip.AddrPort

	stored  time.Time
	ttl     time.Duration
	element *list.Element
	key     Key
}

// Cache is a thread-safe TTL+LRU cache.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*Entry
	lru     *list.List // front = most recent
	max     int
	now     func() time.Time

	hits, misses, evictions uint64
}

// New creates a cache bounded to max entries (0 means 64k).
func New(max int) *Cache {
	if max <= 0 {
		max = 65536
	}
	return &Cache{
		entries: make(map[Key]*Entry, max/4),
		lru:     list.New(),
		max:     max,
		now:     time.Now, //ldp:nolint simclock — the one wall-clock default; SetClock injects simulated time
	}
}

// SetClock replaces the time source (simulated-time experiments).
func (c *Cache) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Put stores a response for key with the given TTL. A zero or negative
// ttl is not cached (RFC 2181 §8: TTL 0 means do-not-cache).
func (c *Cache) Put(key Key, e *Entry, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.lru.Remove(old.element)
	}
	e.stored = c.now()
	e.ttl = ttl
	e.key = key
	e.element = c.lru.PushFront(e)
	c.entries[key] = e
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*Entry).key)
		c.evictions++
	}
}

// Get returns a live entry and the time it has left, or nil when absent
// or expired. The returned entry's record slices must not be modified;
// callers adjusting TTLs should copy (see EntryWithAdjustedTTL). Only
// question lookups count in Stats; delegation probes do not.
func (c *Cache) Get(key Key) (*Entry, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, left := c.live(key)
	switch {
	case key.Delegation:
	case e == nil:
		c.misses++
	default:
		c.hits++
	}
	return e, left
}

func (c *Cache) live(key Key) (*Entry, time.Duration) {
	e, ok := c.entries[key]
	if !ok {
		return nil, 0
	}
	left := e.ttl - c.now().Sub(e.stored)
	if left <= 0 {
		c.lru.Remove(e.element)
		delete(c.entries, key)
		return nil, 0
	}
	c.lru.MoveToFront(e.element)
	return e, left
}

// Delete drops key's entry, if any.
func (c *Cache) Delete(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.lru.Remove(e.element)
		delete(c.entries, key)
	}
}

// EntryWithAdjustedTTL deep-copies the entry's sections with every TTL
// reduced to the remaining lifetime, ready to serve to a client.
func EntryWithAdjustedTTL(e *Entry, left time.Duration) *Entry {
	secs := uint32(left / time.Second)
	adjust := func(rrs []dnsmsg.RR) []dnsmsg.RR {
		out := make([]dnsmsg.RR, len(rrs))
		for i, rr := range rrs {
			if rr.TTL > secs {
				rr.TTL = secs
			}
			out[i] = rr
		}
		return out
	}
	return &Entry{
		Rcode:      e.Rcode,
		Answer:     adjust(e.Answer),
		Authority:  adjust(e.Authority),
		Additional: adjust(e.Additional),
	}
}

// Len reports the number of live-or-expired entries currently held.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Flush drops everything (cold-cache experiment resets).
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[Key]*Entry, c.max/4)
	c.lru.Init()
}

// Stats reports hit/miss/eviction counters since creation.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// MinTTL returns the smallest TTL across the sections of a response,
// the value a cache should store it under.
func MinTTL(sections ...[]dnsmsg.RR) time.Duration {
	min := uint32(1<<32 - 1)
	seen := false
	for _, sec := range sections {
		for _, rr := range sec {
			if rr.Type == dnsmsg.TypeOPT {
				continue
			}
			if rr.TTL < min {
				min = rr.TTL
			}
			seen = true
		}
	}
	if !seen {
		return 0
	}
	return time.Duration(min) * time.Second
}

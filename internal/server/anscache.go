package server

import (
	"hash/maphash"
	"sync"

	"ldplayer/internal/dnsmsg"
)

// The pre-packed answer cache serves the wire hot path (HandleQueryWire):
// for an authoritative server the response to (view, qname, qtype, DO,
// EDNS-presence, size class) is a pure function of the zone set, so after
// answering once the server can keep the fully packed wire form and reply
// to the next identical query with a copy plus a 2-byte ID patch and the
// RD flag bit — no zone walk, no message assembly, no packing.
//
// Every entry stores both the full response and its truncated-empty form
// (TC set, sections emptied except OPT), because within one size class
// the exact byte limit still varies with the client's advertised EDNS
// size; the hit path picks whichever form fits. Both wires are
// normalized: ID zeroed and RD cleared, the only request-dependent bits
// a reply carries (SetReply echoes nothing else for opcode Query).
//
// Invalidation is generational: entries are stamped with the owning
// ZoneSet's generation counter and treated as stale once AddZone bumps
// it. Views are append-only, so a previously matched (src -> view)
// mapping can never change out from under a cached entry.
//
// Admission is second-sighting: a key is only cached once it has missed
// twice, tracked by a 64-bit fingerprint so a one-shot unique-name
// workload (the replay traces' common shape) costs a fingerprint map
// slot instead of a cloned key plus two packed wires.

// maxAnsEntries caps the cache; beyond it a random eighth is evicted
// (Go's map iteration order serves as the randomness source).
const maxAnsEntries = 65536

// maxSeenEntries caps the admission fingerprint set; when full it is
// simply cleared — admission becomes slightly stricter, never wrong.
const maxSeenEntries = 4 * maxAnsEntries

// ansKey identifies one cacheable response. name is cloned before the
// key is stored (request names live in a pooled decode arena and mutate
// on reuse); lookups may use the transient arena-backed name directly.
type ansKey struct {
	view  *View
	name  dnsmsg.Name
	qtype dnsmsg.Type
	do    bool
	edns  bool
	size  uint8
}

// seenKey fingerprints an ansKey for the admission set without retaining
// the (mutable, arena-backed) name bytes.
type seenKey struct {
	view *View
	sum  uint64
}

// ansEntry is one cached response in both servable forms.
type ansEntry struct {
	full  []byte // complete response, ID=0, RD clear
	trunc []byte // TC-set empty form for when full exceeds the limit
	rcode dnsmsg.Rcode
	gen   uint64 // ZoneSet generation the entry was built against
}

type ansCache struct {
	seed maphash.Seed

	mu      sync.RWMutex
	entries map[ansKey]*ansEntry
	seen    map[seenKey]struct{}
}

func (c *ansCache) init() {
	c.seed = maphash.MakeSeed()
	c.entries = make(map[ansKey]*ansEntry)
	c.seen = make(map[seenKey]struct{})
}

// get returns the live entry for k, dropping it instead when the zone
// set has changed since it was built.
func (c *ansCache) get(k ansKey, gen uint64) (*ansEntry, bool) {
	c.mu.RLock()
	e := c.entries[k]
	c.mu.RUnlock()
	if e == nil {
		return nil, false
	}
	if e.gen != gen {
		c.mu.Lock()
		// Recheck under the write lock: a concurrent put may have already
		// replaced the stale entry with a fresh one.
		if cur := c.entries[k]; cur != nil && cur.gen != gen {
			delete(c.entries, k)
		}
		c.mu.Unlock()
		return nil, false
	}
	return e, true
}

// admit reports whether k has missed before, recording the sighting.
// Only admitted keys are inserted, so the first miss of a never-repeated
// name costs one fingerprint instead of a full entry.
func (c *ansCache) admit(k ansKey) bool {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(string(k.name))
	var b [4]byte
	b[0] = byte(k.qtype >> 8)
	b[1] = byte(k.qtype)
	if k.do {
		b[2] |= 1
	}
	if k.edns {
		b[2] |= 2
	}
	b[3] = k.size
	h.Write(b[:])
	sk := seenKey{view: k.view, sum: h.Sum64()}

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.seen[sk]; ok {
		return true
	}
	if len(c.seen) >= maxSeenEntries {
		clear(c.seen)
	}
	c.seen[sk] = struct{}{}
	return false
}

// put inserts e under k (whose name must already be detached from any
// decode arena) and returns how many entries were evicted to make room.
func (c *ansCache) put(k ansKey, e *ansEntry) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[k]; !exists && len(c.entries) >= maxAnsEntries {
		drop := maxAnsEntries / 8
		for victim := range c.entries {
			delete(c.entries, victim)
			evicted++
			if evicted >= drop {
				break
			}
		}
	}
	c.entries[k] = e
	return evicted
}

// len reports the live entry count (tests and debugging).
func (c *ansCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

package obs

import (
	"sync"
	"sync/atomic"
)

// ShardedCounter is one logical counter split across per-shard slots so
// that N cores can increment it without ever sharing a cache line. The
// serving refactor gives every UDP shard its own slot: the hot path does
// one uncontended atomic add on shard-local memory, and the cost of
// aggregation is paid lazily — Value sums the slots only when a snapshot
// (or Stats poll) asks for the total.
//
// Slots are allocated on demand by Slot and never move once handed out:
// growth copies the slice of slot pointers, not the counters themselves,
// so a shard can cache its *Counter for the lifetime of the process.
// Each slot is padded to a cache line; separate slots never false-share.
type ShardedCounter struct {
	mu    sync.Mutex // serializes slot growth only
	slots atomic.Pointer[[]*slotCounter]
}

// slotCounter pads one slot's counter word out to a 64-byte line so
// adjacent heap objects cannot share it.
type slotCounter struct {
	Counter
	_ [56]byte
}

// Slot returns the counter backing slot i, growing the slot set if this
// is the first sighting of i. The returned *Counter is valid forever;
// callers resolve their slot once (shard startup) and then increment it
// lock-free. Slot is safe for concurrent use.
func (s *ShardedCounter) Slot(i int) *Counter {
	if i < 0 {
		i = 0
	}
	if sl := s.slots.Load(); sl != nil && i < len(*sl) {
		return &(*sl)[i].Counter
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var cur []*slotCounter
	if sl := s.slots.Load(); sl != nil {
		cur = *sl
	}
	if i < len(cur) {
		return &cur[i].Counter
	}
	grown := make([]*slotCounter, i+1)
	copy(grown, cur)
	for j := len(cur); j <= i; j++ {
		grown[j] = new(slotCounter)
	}
	s.slots.Store(&grown)
	return &grown[i].Counter
}

// Value sums every slot — the lazy aggregation a snapshot performs.
// Concurrent writers keep going; the sum is as consistent as any
// per-instrument atomic read.
func (s *ShardedCounter) Value() uint64 {
	sl := s.slots.Load()
	if sl == nil {
		return 0
	}
	var total uint64
	for _, c := range *sl {
		total += c.Value()
	}
	return total
}

// NumSlots reports how many slots have been claimed (tests, debugging).
func (s *ShardedCounter) NumSlots() int {
	if sl := s.slots.Load(); sl != nil {
		return len(*sl)
	}
	return 0
}

// ShardedCounter returns the sharded counter registered under name,
// creating it if needed. It appears in snapshots as a single series
// holding the sum of its slots.
func (r *Registry) ShardedCounter(name string) *ShardedCounter {
	if v, ok := r.m.Load(name); ok {
		return mustKind[*ShardedCounter](name, v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m.Load(name); ok {
		return mustKind[*ShardedCounter](name, v)
	}
	mustValidName(name)
	c := &ShardedCounter{}
	r.m.Store(name, c)
	return c
}

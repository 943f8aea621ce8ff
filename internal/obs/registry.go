package obs

import (
	"fmt"
	"regexp"
	"sync"
)

// Registry is a named set of instruments. Lookup (the hot path) is a
// lock-free sync.Map read; creation takes a mutex once per name.
// Instruments are get-or-create: asking twice for the same name returns
// the same instrument, so independent components aggregate into shared
// process-wide series, and a name registered as one kind must not be
// re-requested as another (that panics — it is a programming error, as
// in expvar). So does a malformed name: see validName.
type Registry struct {
	mu sync.Mutex // serializes creation only
	m  sync.Map   // name -> *Counter | *CounterFunc | *Gauge | *Histogram
}

// NewRegistry creates an empty registry. Components that need private
// accounting (a server instance whose Stats must not mix with another's)
// own one of these; everything meant for the process-wide debug endpoint
// registers in Default.
func NewRegistry() *Registry { return &Registry{} }

// Default is the process-wide registry served by the -debug-addr
// endpoint of ldp-server and ldp-replay. Package-level instruments
// (transport, resolver) live here; servers and replay engines join it
// when their config points Obs at it.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.m.Load(name); ok {
		return mustKind[*Counter](name, v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m.Load(name); ok {
		return mustKind[*Counter](name, v)
	}
	mustValidName(name)
	c := &Counter{}
	r.m.Store(name, c)
	return c
}

// CounterFunc registers a pull-style counter computed by fn at scrape
// time, creating it if needed. An existing registration under the same
// name keeps its original callback.
func (r *Registry) CounterFunc(name string, fn func() uint64) *CounterFunc {
	if v, ok := r.m.Load(name); ok {
		return mustKind[*CounterFunc](name, v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m.Load(name); ok {
		return mustKind[*CounterFunc](name, v)
	}
	mustValidName(name)
	c := &CounterFunc{fn: fn}
	r.m.Store(name, c)
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if v, ok := r.m.Load(name); ok {
		return mustKind[*Gauge](name, v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m.Load(name); ok {
		return mustKind[*Gauge](name, v)
	}
	mustValidName(name)
	g := &Gauge{}
	r.m.Store(name, g)
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds if needed (an existing histogram keeps
// its original bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if v, ok := r.m.Load(name); ok {
		return mustKind[*Histogram](name, v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m.Load(name); ok {
		return mustKind[*Histogram](name, v)
	}
	mustValidName(name)
	h := newHistogram(bounds)
	r.m.Store(name, h)
	return h
}

// Do calls fn for every registered instrument, in no particular order.
func (r *Registry) Do(fn func(name string, instrument any)) {
	r.m.Range(func(k, v any) bool {
		fn(k.(string), v)
		return true
	})
}

func mustKind[T any](name string, v any) T {
	t, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("obs: instrument %q already registered as %T", name, v))
	}
	return t
}

// validName is the series naming rule: lowercase dot-separated
// segments, at least two, where the last may instead be an upper-case
// mnemonic so that bounded families keyed by a wire name keep it as the
// wire spells it (server.rcode.NOERROR, server.qtype.AAAA).
var validName = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*\.([a-z0-9_]+|[A-Z0-9]+)$`)

// mustValidName panics on a malformed series name. Registries call it
// only when they create a series, never on the lookup path, so a
// malformed name fails the first time it is registered, like a kind
// mismatch.
func mustValidName(name string) {
	if !validName.MatchString(name) {
		panic(fmt.Sprintf("obs: malformed instrument name %q: want lowercase dot-separated segments, e.g. server.queries or server.rcode.NOERROR", name))
	}
}

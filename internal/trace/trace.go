// Package trace defines LDplayer's trace model and the three input forms
// of the paper's Fig 3 pipeline: network traces (pcap, via internal/pcap),
// a human-editable column plain-text form, and a length-prefixed internal
// binary stream optimized for the replay hot path. Converters move
// records among all three.
package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"time"

	"ldplayer/internal/dnsmsg"
)

// Proto is the transport a message used (or should use in replay).
type Proto uint8

// Transports the replay engine supports.
const (
	UDP Proto = iota
	TCP
	TLS
)

// String returns the transport mnemonic.
func (p Proto) String() string {
	switch p {
	case UDP:
		return "udp"
	case TCP:
		return "tcp"
	case TLS:
		return "tls"
	}
	return fmt.Sprintf("proto%d", uint8(p))
}

// ProtoFromString parses a transport mnemonic.
func ProtoFromString(s string) (Proto, error) {
	switch s {
	case "udp":
		return UDP, nil
	case "tcp":
		return TCP, nil
	case "tls":
		return TLS, nil
	}
	return 0, fmt.Errorf("trace: unknown protocol %q", s)
}

// Event is one DNS message observed (or to be replayed) at a point in
// time. Wire holds the packed DNS message; Msg decodes it on demand so
// the replay input path stays allocation-light. Wire is owned by the
// event: producers (pcap.DNSReader, the trace format readers) copy the
// message bytes out of any shared read buffer before emitting, so an
// event may be retained or queued indefinitely.
type Event struct {
	Time  time.Time
	Src   netip.AddrPort
	Dst   netip.AddrPort
	Proto Proto
	Wire  []byte
}

// Msg decodes the wire message.
func (e *Event) Msg() (*dnsmsg.Msg, error) {
	var m dnsmsg.Msg
	if err := m.Unpack(e.Wire); err != nil {
		return nil, err
	}
	return &m, nil
}

// IsQuery reports whether the message's QR bit marks it a query, without
// a full decode.
func (e *Event) IsQuery() bool {
	return len(e.Wire) >= 3 && e.Wire[2]&0x80 == 0
}

// ID returns the DNS message ID without a full decode.
func (e *Event) ID() uint16 {
	if len(e.Wire) < 2 {
		return 0
	}
	return uint16(e.Wire[0])<<8 | uint16(e.Wire[1])
}

// SetID patches the message ID in place.
func (e *Event) SetID(id uint16) {
	if len(e.Wire) >= 2 {
		e.Wire[0], e.Wire[1] = byte(id>>8), byte(id)
	}
}

// Clone deep-copies the event (mutators work on copies).
func (e *Event) Clone() *Event {
	c := *e
	c.Wire = append([]byte(nil), e.Wire...)
	return &c
}

// Trace is an in-memory sequence of events plus summary statistics.
// Large replays should stream with Reader/Writer pairs instead.
type Trace struct {
	Events []*Event
}

// Stats summarizes a trace the way the paper's Table 1 reports traces.
// Summarize fills it in a single-goroutine scan; it is never shared
// while accumulating.
type Stats struct {
	Records      int
	Queries      int
	Responses    int
	Clients      int           // distinct source addresses
	Duration     time.Duration // last minus first timestamp
	InterArrival time.Duration // mean inter-arrival of queries
	InterArrSD   time.Duration // standard deviation of inter-arrival
	BytesTotal   int64
	ProtoCounts  map[Proto]int
	DOQueries    int // queries with the DNSSEC-OK bit
	UniqueQNames int
}

// ComputeStats scans the trace once and fills a Stats.
func (t *Trace) ComputeStats() Stats {
	s := Stats{ProtoCounts: make(map[Proto]int)}
	clients := make(map[netip.Addr]struct{})
	qnames := make(map[string]struct{})
	var lastQ time.Time
	var deltas []float64
	for _, e := range t.Events {
		s.Records++
		s.BytesTotal += int64(len(e.Wire))
		s.ProtoCounts[e.Proto]++
		if !e.IsQuery() {
			s.Responses++
			continue
		}
		s.Queries++
		clients[e.Src.Addr()] = struct{}{}
		if m, err := e.Msg(); err == nil {
			if len(m.Question) > 0 {
				qnames[string(m.Question[0].Name)] = struct{}{}
			}
			if _, do, ok := m.EDNS(); ok && do {
				s.DOQueries++
			}
		}
		if !lastQ.IsZero() {
			deltas = append(deltas, e.Time.Sub(lastQ).Seconds())
		}
		lastQ = e.Time
	}
	s.Clients = len(clients)
	s.UniqueQNames = len(qnames)
	if len(t.Events) > 1 {
		s.Duration = t.Events[len(t.Events)-1].Time.Sub(t.Events[0].Time)
	}
	if len(deltas) > 0 {
		var sum float64
		for _, d := range deltas {
			sum += d
		}
		mean := sum / float64(len(deltas))
		var varsum float64
		for _, d := range deltas {
			varsum += (d - mean) * (d - mean)
		}
		sd := 0.0
		if len(deltas) > 1 {
			sd = varsum / float64(len(deltas)-1)
		}
		s.InterArrival = time.Duration(mean * float64(time.Second))
		s.InterArrSD = time.Duration(math.Sqrt(sd) * float64(time.Second))
	}
	return s
}

// Reader streams events from some source.
type Reader interface {
	// Read returns the next event or io.EOF.
	Read() (*Event, error)
}

// BatchReader is the bulk fast path some Readers additionally implement:
// ReadBatch fills dst with up to len(dst) events and returns how many it
// delivered. A short count is not an error — it means the source had
// fewer events immediately available (end of file, or a live stream that
// would block). ReadBatch returns n > 0 with a nil error even when the
// source ends mid-batch; the terminal io.EOF (or read error) surfaces on
// the next call, so callers never lose the tail. The replay controller
// probes for this interface and amortizes per-event call overhead ~batch
// times when the input provides it.
type BatchReader interface {
	Reader
	ReadBatch(dst []*Event) (int, error)
}

// ReadSome reads up to len(dst) events from r: the bulk path when r
// implements BatchReader, a single Read otherwise. The single-event
// fallback is deliberate — a plain Reader has no way to say "nothing
// more buffered", so looping Read to fill dst would hold early events
// hostage to the arrival of later ones (fatal for a live, paced
// source). A short count with nil error is normal; io.EOF (or a read
// error) surfaces on the call that has nothing to deliver.
func ReadSome(r Reader, dst []*Event) (int, error) {
	if br, ok := r.(BatchReader); ok {
		return br.ReadBatch(dst)
	}
	if len(dst) == 0 {
		return 0, nil
	}
	e, err := r.Read()
	if err != nil {
		return 0, err
	}
	dst[0] = e
	return 1, nil
}

// Writer consumes a stream of events.
type Writer interface {
	Write(*Event) error
}

// ReadAll drains a Reader into a Trace.
func ReadAll(r Reader) (*Trace, error) {
	t := &Trace{}
	for {
		e, err := r.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return t, nil
			}
			return nil, err
		}
		t.Events = append(t.Events, e)
	}
}

// WriteAll feeds every event of a trace into a Writer.
func WriteAll(w Writer, t *Trace) error {
	for _, e := range t.Events {
		if err := w.Write(e); err != nil {
			return err
		}
	}
	return nil
}

package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/trace"
)

// digest hashes what a trace says, event by event: time, source,
// destination, protocol and wire image.
func digest(tr *trace.Trace) string {
	h := sha256.New()
	var b []byte
	for _, e := range tr.Events {
		b = binary.BigEndian.AppendUint64(b[:0], uint64(e.Time.UnixNano()))
		b, _ = e.Src.AppendBinary(b)
		b, _ = e.Dst.AppendBinary(b)
		b = append(b, byte(e.Proto))
		b = binary.BigEndian.AppendUint16(b, uint16(len(e.Wire)))
		b = append(b, e.Wire...)
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenModels are the generators pinned by TestModelsByteIdentical,
// two seeds each. The digests were computed at the commit before the
// generators moved onto the slab builder (PR 21), so they hold the
// builder to the exact traces the per-event Pack produced.
var goldenModels = []struct {
	name string
	gen  func() *trace.Trace
	want string
}{
	{"broot-seed1", func() *trace.Trace {
		return BRootModel(BRootConfig{Duration: 3 * time.Second, MedianRate: 2000, Clients: 300, Seed: 1})
	}, "06705f29557808d03616bd1645008a3b1b15b6abac23fc441138285401af58db"},
	{"broot-seed42", func() *trace.Trace {
		return BRootModel(BRootConfig{Duration: 2 * time.Second, MedianRate: 1500, Clients: 120, Seed: 42, TCPFraction: 0.2})
	}, "fef801a983d3d0bd6be314569c26604283e1df2e5524fe2a273575dd170a50e1"},
	{"rec-seed5", func() *trace.Trace {
		return RecModel(RecConfig{Duration: time.Minute, Queries: 3000, Clients: 91, Seed: 5})
	}, "e3954493a6354b582e579c9da91dc92c85b4a5603cb2c2b013a984eadcfb63df"},
	{"rec-zones-seed8", func() *trace.Trace {
		zones := []dnsmsg.Name{"a.com.", "b.net.", "c.org.", "d.example."}
		return RecModel(RecConfig{Duration: time.Minute, Queries: 2000, Clients: 20, Zones: zones, Seed: 8})
	}, "b576fb7a9ec276f302ba841c93427d73b13f0b558ec97384fd0d0ef244400290"},
	{"syn-seed1", func() *trace.Trace {
		return Synthetic(SyntheticConfig{InterArrival: time.Millisecond, Duration: 2 * time.Second, Clients: 50, Seed: 1})
	}, "b81fcd3d84c32ccfc108727bd1bba297ac29649ef710b879c1f2a64033528939"},
	{"syn-seed9", func() *trace.Trace {
		return Synthetic(SyntheticConfig{InterArrival: 100 * time.Microsecond, Duration: 300 * time.Millisecond, Clients: 7, Domain: "zz.test.", Seed: 9})
	}, "d984907b2451fab658d131a2855b9206e949e6e7cfecbc16321386c0ead27c7d"},
}

// TestModelsByteIdentical: every model reproduces, for every pinned
// seed, the exact trace of the reference generator.
func TestModelsByteIdentical(t *testing.T) {
	for _, g := range goldenModels {
		if got := digest(g.gen()); got != g.want {
			t.Errorf("%s: digest %s, want %s", g.name, got, g.want)
		}
	}
}

// TestSlabWireIsolated: events share slabs, but mutating one event's
// Wire in place (SetID) or growing it (append) leaves every neighbour's
// bytes untouched.
func TestSlabWireIsolated(t *testing.T) {
	tr := BRootModel(BRootConfig{Duration: time.Second, MedianRate: 3000, Clients: 50, Seed: 2})
	orig := make([][]byte, len(tr.Events))
	for i, e := range tr.Events {
		orig[i] = append([]byte(nil), e.Wire...)
	}
	for i := 0; i < len(tr.Events); i += 2 {
		e := tr.Events[i]
		e.SetID(^e.ID())
		e.Wire = append(e.Wire, 0xAA, 0xBB, 0xCC, 0xDD)
	}
	for i := 1; i < len(tr.Events); i += 2 {
		if got := tr.Events[i].Wire; string(got) != string(orig[i]) {
			t.Fatalf("event %d changed by its neighbours' mutation: %x, was %x", i, got, orig[i])
		}
	}
	for i := 0; i < len(tr.Events); i += 2 {
		w := tr.Events[i].Wire
		if len(w) != len(orig[i])+4 || string(w[2:len(orig[i])]) != string(orig[i][2:]) {
			t.Fatalf("event %d: mutated wire %x from %x", i, w, orig[i])
		}
	}
}

// TestModelWireMatchesReferencePack: every generated query is byte for
// byte the reference Pack of the message it decodes to, so the direct
// encoder writes what the codec would. The first model is the one the
// benchmark's B-Root workloads replay; mixed-case TLDs pin lowercasing.
func TestModelWireMatchesReferencePack(t *testing.T) {
	for _, cfg := range []BRootConfig{
		{Duration: 18 * time.Second, MedianRate: 20000, Clients: 2000, Seed: 1},
		{Duration: 2 * time.Second, MedianRate: 2000, Clients: 100, Seed: 3, TLDs: []string{"COM", "Org"}},
	} {
		for i, e := range BRootModel(cfg).Events {
			var m dnsmsg.Msg
			if err := m.Unpack(e.Wire); err != nil {
				t.Fatalf("TLDs %v event %d: %v", cfg.TLDs, i, err)
			}
			want, err := m.Pack()
			if err != nil {
				t.Fatalf("TLDs %v event %d: reference Pack: %v", cfg.TLDs, i, err)
			}
			if !bytes.Equal(e.Wire, want) {
				t.Fatalf("TLDs %v event %d (%s):\n got %x\nwant %x", cfg.TLDs, i, m.Question[0].Name, e.Wire, want)
			}
		}
	}
}

// TestBRootModelAllocs: generation allocates per slab and per chunk,
// not per event.
func TestBRootModelAllocs(t *testing.T) {
	cfg := BRootConfig{Duration: 4 * time.Second, MedianRate: 20000, Clients: 2000, Seed: 1}
	events := len(BRootModel(cfg).Events)
	if a := testing.AllocsPerRun(1, func() { BRootModel(cfg) }) / float64(events); a > 0.01 {
		t.Errorf("BRootModel: %.4f allocs per event (%d events), want at most 0.01", a, events)
	}
}

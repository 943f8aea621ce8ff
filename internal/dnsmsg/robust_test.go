package dnsmsg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestUnpackNeverPanics: decoding arbitrary bytes must return an error
// or a message, never panic or hang — the server and the pcap pipeline
// feed attacker-controlled bytes straight into Unpack.
func TestUnpackNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		var m Msg
		_ = m.Unpack(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestUnpackMutatedValidMessages: take a valid packed message and flip
// bytes; decoding must stay panic-free and, when it succeeds, repacking
// must succeed too (no internally-inconsistent messages escape).
func TestUnpackMutatedValidMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	wire, err := sampleMsg().Pack()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		mutated := append([]byte(nil), wire...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 << rng.Intn(8))
		}
		var m Msg
		if err := m.Unpack(mutated); err != nil {
			continue
		}
		if _, err := m.Pack(); err != nil {
			// Repack of an accepted message may legitimately fail only on
			// name-length violations introduced by mutation; anything else
			// indicates Unpack accepted garbage it cannot represent.
			switch err {
			case ErrNameTooLong, ErrLabelTooLong, ErrMsgTooLarge:
			default:
				t.Fatalf("mutation %d: unpack accepted, repack failed: %v", i, err)
			}
		}
	}
}

// TestUnpackTruncations: every prefix of a valid message must decode or
// error cleanly.
func TestUnpackTruncations(t *testing.T) {
	wire, err := sampleMsg().Pack()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(wire); n++ {
		var m Msg
		if err := m.Unpack(wire[:n]); err == nil && n < 12 {
			t.Errorf("truncation to %d bytes accepted (no header)", n)
		}
	}
}

// unpackNameOp decodes a six-label uncompressed name.
func unpackNameOp(tb testing.TB) func() error {
	buf, err := appendName(nil, "a.long.chain.of.labels.example.com.", nil)
	if err != nil {
		tb.Fatal(err)
	}
	return func() error {
		_, _, err := unpackName(buf, 0)
		return err
	}
}

func BenchmarkUnpackName(b *testing.B) { benchOp(b, unpackNameOp(b)) }

// appendNameCompressedOp encodes two names that share a suffix through
// a fresh compression map.
func appendNameCompressedOp(testing.TB) func() error {
	return func() error {
		cmap := make(map[Name]int, 4)
		buf, _ := appendName(nil, "www.example.com.", cmap)
		_, err := appendName(buf, "mail.example.com.", cmap)
		return err
	}
}

func BenchmarkAppendNameCompressed(b *testing.B) { benchOp(b, appendNameCompressedOp(b)) }

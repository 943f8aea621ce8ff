package transport

import (
	"bytes"
	"net/netip"
	"testing"
)

// naiveCut is FuzzSplitCoalesced's oracle: every datagram of msgs, cut
// one message at a time. A message is one datagram when seg is 0 or
// the message is empty.
func naiveCut(msgs []coalesced) []Datagram {
	var out []Datagram
	for _, m := range msgs {
		if m.seg == 0 || len(m.buf) == 0 {
			out = append(out, Datagram{Buf: m.buf, N: len(m.buf), Addr: m.addr})
			continue
		}
		for off := 0; off < len(m.buf); off += m.seg {
			d := m.buf[off:min(off+m.seg, len(m.buf))]
			out = append(out, Datagram{Buf: d, N: len(d), Addr: m.addr})
		}
	}
	return out
}

// FuzzSplitCoalesced: successive reads through splitCoalesced, each
// with its own slot count and slot size, return the naive cut of the
// messages, one datagram per slot, in order, each truncated to its
// slot, and touch no slot past the count they return. The input is a
// byte program: a message count, then per message a length (two bytes)
// and a segment size, then per read a slot count and a slot size.
func FuzzSplitCoalesced(f *testing.F) {
	f.Add([]byte{2, 0, 100, 20, 1, 10, 0, 5, 64, 3, 8})            // a run with a short tail, then a singleton
	f.Add([]byte{3, 0, 0, 0, 0, 40, 40, 0, 12, 5, 1, 30, 2, 30})   // an empty datagram, an exact multiple, a lone segment
	f.Add([]byte{1, 1, 0, 7, 1, 4})                                // one long run through one slot at a time, truncated
	f.Add([]byte{4, 0, 9, 3, 0, 9, 9, 0, 8, 0, 0, 1, 1, 32, 2, 0}) // zero-size slots
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		msgs := make([]coalesced, 1+next()%6)
		for i := range msgs {
			size := (next()<<8 | next()) % 1500
			buf := make([]byte, size)
			for j := range buf {
				buf[j] = byte(i*31 + j*7 + j>>8)
			}
			msgs[i] = coalesced{buf: buf, seg: next() % 70, addr: netip.AddrPortFrom(netip.IPv4Unspecified(), uint16(i))}
		}
		want := naiveCut(msgs)
		head, off, got := 0, 0, 0
		for head < len(msgs) {
			slots, size := 1+next()%9, next()%80
			ms := make([]Datagram, slots)
			for i := range ms {
				ms[i] = Datagram{Buf: make([]byte, size), N: -1}
			}
			var n int
			n, head, off = splitCoalesced(ms, msgs, head, off)
			if wantN := min(slots, len(want)-got); n != wantN {
				t.Fatalf("read of %d slots after %d datagrams returned %d, want %d", slots, got, n, wantN)
			}
			for i, m := range ms[:n] {
				w := want[got+i]
				wb := w.Buf[:min(len(w.Buf), size)]
				if m.N != len(wb) || !bytes.Equal(m.Buf[:m.N], wb) || m.Addr != w.Addr {
					t.Fatalf("datagram %d: %d bytes from %v, want %d bytes from %v", got+i, m.N, m.Addr, len(wb), w.Addr)
				}
			}
			for i, m := range ms[n:] {
				if m.N != -1 {
					t.Fatalf("slot %d past the %d returned was written", n+i, n)
				}
			}
			got += n
			if got == len(want) && head != len(msgs) {
				t.Fatalf("every datagram returned, but head %d of %d messages", head, len(msgs))
			}
		}
		if got != len(want) {
			t.Fatalf("%d datagrams returned, want %d", got, len(want))
		}
	})
}

//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// requireSegmentation skips the test unless the kernel takes a
// UDP_SEGMENT message on a plain socket: it must answer getsockopt for
// the option and accept a two-segment send.
func requireSegmentation(t *testing.T, pc net.PacketConn) {
	t.Helper()
	uc := pc.(*net.UDPConn)
	raw, err := uc.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var gerr error
	if err := raw.Control(func(fd uintptr) {
		_, gerr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
	}); err != nil {
		t.Fatal(err)
	}
	if gerr != nil {
		t.Skipf("kernel refuses UDP_SEGMENT: %v", gerr)
	}
	sink, addr, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	var c segCmsg
	c.hdr = syscall.Cmsghdr{Level: syscall.IPPROTO_UDP, Type: udpSegment}
	c.hdr.SetLen(syscall.CmsgLen(2))
	c.size = 8
	oob := unsafe.Slice((*byte)(unsafe.Pointer(&c)), unsafe.Sizeof(c))
	if _, _, err := uc.WriteMsgUDPAddrPort(make([]byte, 16), oob, addr); err != nil {
		t.Skipf("kernel refuses UDP_SEGMENT: %v", err)
	}
}

// segmentedBatch builds a WriteBatch input that exercises every
// grouping rule, alternating between two destinations, and returns it
// with the payloads each destination must see, in order. Every payload
// starts with its index in the batch, so no two are alike.
func segmentedBatch(a, b netip.AddrPort) ([]Datagram, map[netip.AddrPort][][]byte) {
	var ms []Datagram
	want := map[netip.AddrPort][][]byte{}
	add := func(dst netip.AddrPort, size, count int) {
		for range count {
			p := make([]byte, size)
			binary.BigEndian.PutUint32(p, uint32(len(ms)))
			for j := 4; j < size; j++ {
				p[j] = byte(len(ms)*7 + j)
			}
			ms = append(ms, Datagram{Buf: p, Addr: dst})
			want[dst] = append(want[dst], p)
		}
	}
	add(a, 20, 130)       // past the 64-segment cap, and the 128 of later kernels
	add(b, 200, 5)        // a run ...
	add(b, 201, 1)        // ... broken by one datagram of another size
	add(b, 200, 5)        // ... and resumed
	add(a, 300, 3)        // equal sizes, alternating destinations
	add(b, 300, 3)        //
	add(a, 300, 3)        //
	add(a, 1400, 1)       // above segMaxLen: sent alone
	add(b, 1400, 2)       // (twice: never a run)
	add(b, segMaxLen, 53) // at the length cap; 53 of them pass segMaxBytes
	add(a, 50, 1)         // a singleton at the end
	return ms, want
}

// readPlain reads n datagrams from pc with ReadFrom.
func readPlain(t *testing.T, pc net.PacketConn, n int) [][]byte {
	t.Helper()
	pc.SetReadDeadline(time.Now().Add(5 * time.Second)) // test socket; a failed deadline fails the read below
	var got [][]byte
	buf := make([]byte, 2048)
	for len(got) < n {
		k, _, err := pc.ReadFrom(buf)
		if err != nil {
			t.Fatalf("ReadFrom after %d of %d datagrams: %v", len(got), n, err)
		}
		got = append(got, bytes.Clone(buf[:k]))
	}
	return got
}

// readBatched reads n datagrams from pc through a UDPBatch.
func readBatched(t *testing.T, pc net.PacketConn, n int) [][]byte {
	t.Helper()
	pc.SetReadDeadline(time.Now().Add(5 * time.Second)) // test socket; a failed deadline fails the read below
	rb := NewUDPBatch(pc)
	ms := make([]Datagram, 16)
	for i := range ms {
		ms[i].Buf = make([]byte, 2048)
	}
	var got [][]byte
	for len(got) < n {
		k, err := rb.ReadBatch(ms)
		if err != nil {
			t.Fatalf("ReadBatch after %d of %d datagrams: %v", len(got), n, err)
		}
		for i := range ms[:k] {
			got = append(got, bytes.Clone(ms[i].Buf[:ms[i].N]))
		}
	}
	return got
}

func samePayloads(t *testing.T, who string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d datagrams, want %d", who, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: datagram %d is %d bytes starting %x, want %d bytes starting %x",
				who, i, len(got[i]), got[i][:4], len(want[i]), want[i][:4])
		}
	}
}

// segmentedSetup opens a sender wrapped in a UDPBatch and two sinks.
func segmentedSetup(t *testing.T) (snd *UDPBatch, plain, batched net.PacketConn) {
	t.Helper()
	var pcs [3]net.PacketConn
	for i := range pcs {
		pc, _, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pc.Close() })
		GrowReadBuffer(pc)
		pcs[i] = pc
	}
	requireSegmentation(t, pcs[0])
	snd = NewUDPBatch(pcs[0])
	if snd.sys == nil || !snd.sys.segment {
		t.Fatal("a UDP socket whose kernel takes UDP_SEGMENT did not select segmented writes")
	}
	return snd, pcs[1], pcs[2]
}

// TestUDPBatchWriteSegmented: one WriteBatch that groups datagrams into
// segmented messages delivers each datagram byte-identical and in
// order, to a plain ReadFrom reader and to a UDPBatch reader alike, and
// counts every datagram, not every message.
func TestUDPBatchWriteSegmented(t *testing.T) {
	snd, plain, batched := segmentedSetup(t)
	a, b := AddrPortOf(plain.LocalAddr()), AddrPortOf(batched.LocalAddr())
	ms, want := segmentedBatch(a, b)
	sent, err := snd.WriteBatch(ms)
	if err != nil || sent != len(ms) {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, len(ms))
	}
	if !snd.sys.segment {
		t.Fatal("the kernel refused a segmented message: the batch went out unsegmented")
	}
	samePayloads(t, "ReadFrom reader", readPlain(t, plain, len(want[a])), want[a])
	samePayloads(t, "UDPBatch reader", readBatched(t, batched, len(want[b])), want[b])
}

// TestUDPBatchWriteSegmentRefused: with SO_NO_CHECK set, the kernel
// answers a segmented send with EINVAL. WriteBatch then sends the rest
// of the batch one datagram per message, counts exactly, and segments
// no more on that socket.
func TestUDPBatchWriteSegmentRefused(t *testing.T) {
	snd, plain, batched := segmentedSetup(t)
	raw, err := snd.pc.(*net.UDPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Fatalf("SO_NO_CHECK: %v, %v", err, serr)
	}
	a, b := AddrPortOf(plain.LocalAddr()), AddrPortOf(batched.LocalAddr())
	for round := range 2 {
		// The refused run sits mid-batch, behind a datagram sendmmsg
		// has already taken.
		ms, want := segmentedBatch(a, b)
		ms = append([]Datagram{{Buf: []byte("head"), Addr: a}}, ms...)
		want[a] = append([][]byte{[]byte("head")}, want[a]...)
		sent, err := snd.WriteBatch(ms)
		if err != nil || sent != len(ms) {
			t.Fatalf("round %d: WriteBatch = %d, %v; want %d, nil", round, sent, err, len(ms))
		}
		if snd.sys.segment {
			t.Fatalf("round %d: still segmenting after the kernel refused a segmented message", round)
		}
		samePayloads(t, "ReadFrom reader", readPlain(t, plain, len(want[a])), want[a])
		samePayloads(t, "UDPBatch reader", readBatched(t, batched, len(want[b])), want[b])
	}
	// Nothing more was queued: each datagram arrived exactly once.
	plain.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) // test socket; a failed deadline hangs the read visibly
	if n, _, err := plain.ReadFrom(make([]byte, 2048)); err == nil {
		t.Fatalf("a %d-byte datagram arrived twice", n)
	}
}

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

// groOn reports the socket's UDP_GRO option.
func groOn(t *testing.T, pc net.PacketConn) bool {
	t.Helper()
	raw, err := pc.(*net.UDPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var v int
	var gerr error
	if err := raw.Control(func(fd uintptr) {
		v, gerr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO)
	}); err != nil || gerr != nil {
		t.Fatalf("getsockopt UDP_GRO: %v, %v", err, gerr)
	}
	return v != 0
}

// requireGRO skips the test unless the kernel takes UDP_GRO on a plain
// socket.
func requireGRO(t *testing.T) {
	t.Helper()
	pc, _, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	raw, err := pc.(*net.UDPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Skipf("kernel refuses UDP_GRO: %v", serr)
	}
}

// groSetup opens a reader and two senders that segment their writes.
func groSetup(t *testing.T) (rcv net.PacketConn, snd [2]*UDPBatch) {
	t.Helper()
	var pcs [3]net.PacketConn
	for i := range pcs {
		pc, _, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pc.Close() })
		pcs[i] = pc
	}
	requireSegmentation(t, pcs[1])
	requireGRO(t)
	GrowReadBuffer(pcs[0])
	for i := range snd {
		snd[i] = NewUDPBatch(pcs[i+1])
		if !snd[i].sys.segment {
			t.Fatal("a UDP socket whose kernel takes UDP_SEGMENT did not select segmented writes")
		}
	}
	return pcs[0], snd
}

// groReader wraps rcv in a UDPBatch and reads one datagram through it,
// so that UDP_GRO is on before the test's runs are sent: a run queued
// before it went on was split when it was queued.
func groReader(t *testing.T, rcv net.PacketConn, snd *UDPBatch) *UDPBatch {
	t.Helper()
	rb := NewUDPBatch(rcv)
	if n, err := snd.WriteBatch([]Datagram{{Buf: []byte("first"), Addr: AddrPortOf(rcv.LocalAddr())}}); err != nil || n != 1 {
		t.Fatalf("WriteBatch = %d, %v; want 1, nil", n, err)
	}
	rcv.SetReadDeadline(time.Now().Add(5 * time.Second)) // test socket; a failed deadline fails the reads
	ms := []Datagram{{Buf: make([]byte, 64)}}
	if n, err := rb.ReadBatch(ms); err != nil || n != 1 || string(ms[0].Buf[:ms[0].N]) != "first" {
		t.Fatalf("ReadBatch = %d, %v; want the first datagram", n, err)
	}
	if !groOn(t, rcv) {
		t.Fatal("UDP_GRO is off after a ReadBatch on a kernel that takes it")
	}
	return rb
}

// payload is datagram seq of a sender: size bytes, starting with seq.
func payload(seq, size int) []byte {
	p := make([]byte, size)
	binary.BigEndian.PutUint32(p, uint32(seq))
	for j := 4; j < size; j++ {
		p[j] = byte(seq*13 + j)
	}
	return p
}

// sendRaw sends buf from pc to dst as one message, cut at seg by a
// UDP_SEGMENT control message when seg > 0.
func sendRaw(t *testing.T, pc net.PacketConn, buf []byte, seg int, dst netip.AddrPort) {
	t.Helper()
	var oob []byte
	if seg > 0 {
		var c segCmsg
		c.hdr = syscall.Cmsghdr{Level: syscall.IPPROTO_UDP, Type: udpSegment}
		c.hdr.SetLen(syscall.CmsgLen(2))
		c.size = uint16(seg)
		oob = unsafe.Slice((*byte)(unsafe.Pointer(&c)), unsafe.Sizeof(c))
	}
	if _, _, err := pc.(*net.UDPConn).WriteMsgUDPAddrPort(buf, oob, dst); err != nil {
		t.Fatalf("raw send of %d bytes at segment %d: %v", len(buf), seg, err)
	}
}

// TestUDPBatchReadCoalesced: runs that two senders segment, interleaved
// with singletons, a run with a short last segment and a zero-length
// datagram, reach a UDPBatch reader with five slots one datagram per
// slot: byte-identical, in order per source, each with its source
// address. The runs arrive coalesced, and the datagrams that do not fit
// the slots come from the carry-over. Slots shorter than a segment
// truncate it.
func TestUDPBatchReadCoalesced(t *testing.T) {
	rcv, snd := groSetup(t)
	rb := groReader(t, rcv, snd[0])
	dst := AddrPortOf(rcv.LocalAddr())
	var want [2][][]byte
	seq := 0
	write := func(s, size, count int) {
		ms := make([]Datagram, count)
		for i := range ms {
			ms[i] = Datagram{Buf: payload(seq, size), Addr: dst}
			want[s] = append(want[s], ms[i].Buf)
			seq++
		}
		if n, err := snd[s].WriteBatch(ms); err != nil || n != count {
			t.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, count)
		}
	}
	write(0, 20, 7)  // longer than the reader's five slots
	write(1, 30, 3)  //
	write(0, 11, 1)  // a singleton
	write(1, 40, 12) //
	write(0, 20, 3)  //
	write(1, 17, 1)  //
	write(0, 99, 40) // much longer
	// One message whose last segment is short: 3 × 25 bytes and 10.
	segs := [][]byte{payload(seq, 25), payload(seq+1, 25), payload(seq+2, 25), payload(seq+3, 10)}
	seq += len(segs)
	sendRaw(t, snd[1].pc, bytes.Join(segs, nil), 25, dst)
	want[1] = append(want[1], segs...)
	sendRaw(t, snd[0].pc, nil, 0, dst) // a zero-length datagram
	want[0] = append(want[0], []byte{})
	write(1, 50, 6)

	ms := make([]Datagram, 5)
	for i := range ms {
		ms[i].Buf = make([]byte, 2048)
	}
	from := map[netip.AddrPort]int{AddrPortOf(snd[0].pc.LocalAddr()): 0, AddrPortOf(snd[1].pc.LocalAddr()): 1}
	var got [2][][]byte
	coalesced, carried := 0, 0
	for total := len(want[0]) + len(want[1]); len(got[0])+len(got[1]) < total; {
		n, err := rb.ReadBatch(ms)
		if err != nil {
			t.Fatalf("ReadBatch after %d of %d datagrams: %v", len(got[0])+len(got[1]), total, err)
		}
		for _, m := range ms[:n] {
			s, ok := from[m.Addr]
			if !ok {
				t.Fatalf("a datagram from %v, which sent none", m.Addr)
			}
			got[s] = append(got[s], bytes.Clone(m.Buf[:m.N]))
		}
		if rb.sys.head < len(rb.sys.rcvd) {
			carried++
		}
		for _, m := range rb.sys.rcvd {
			if m.seg > 0 && len(m.buf) > m.seg {
				coalesced++
			}
		}
	}
	if coalesced == 0 || carried == 0 {
		t.Fatalf("%d reads saw a coalesced message, %d left datagrams over: the reads did not split runs", coalesced, carried)
	}
	for s := range want {
		samePayloads(t, "sender "+string(rune('A'+s)), got[s], want[s])
	}

	// A slot Buf shorter than a segment takes the segment's head, as
	// recvmmsg truncates a datagram, and the next segment still starts
	// a slot of its own.
	write(0, 40, 6)
	for i := range ms {
		ms[i].Buf = ms[i].Buf[:16]
	}
	var short [][]byte
	for len(short) < 6 {
		n, err := rb.ReadBatch(ms)
		if err != nil {
			t.Fatalf("ReadBatch after %d of 6 datagrams: %v", len(short), err)
		}
		for _, m := range ms[:n] {
			short = append(short, bytes.Clone(m.Buf[:m.N]))
		}
	}
	wantShort := make([][]byte, 6)
	for i, p := range want[0][len(want[0])-6:] {
		wantShort[i] = p[:16]
	}
	samePayloads(t, "16-byte slots", short, wantShort)
}

// TestUDPBatchWriteOnlyStaysPlain: a socket wrapped in a UDPBatch only
// to write, and read with ReadFrom, keeps UDP_GRO off, so every
// datagram of a segmented run reaches ReadFrom on its own.
func TestUDPBatchWriteOnlyStaysPlain(t *testing.T) {
	rcv, snd := groSetup(t)
	wb := NewUDPBatch(rcv)
	back := AddrPortOf(snd[0].pc.LocalAddr())
	if n, err := wb.WriteBatch([]Datagram{{Buf: []byte("hello"), Addr: back}}); err != nil || n != 1 {
		t.Fatalf("WriteBatch = %d, %v; want 1, nil", n, err)
	}
	dst := AddrPortOf(rcv.LocalAddr())
	var want [][]byte
	for _, size := range []int{20, 20, 20, 20, 20, 33, 33, 33} {
		want = append(want, payload(len(want), size))
	}
	ms := make([]Datagram, len(want))
	for i := range ms {
		ms[i] = Datagram{Buf: want[i], Addr: dst}
	}
	if n, err := snd[1].WriteBatch(ms); err != nil || n != len(ms) {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, len(ms))
	}
	samePayloads(t, "ReadFrom reader", readPlain(t, rcv, len(want)), want)
	if groOn(t, rcv) {
		t.Fatal("a socket never read through ReadBatch has UDP_GRO on")
	}
}

package transport

import (
	"errors"
	"net"
	"net/netip"
	"sync"
)

// Datagram is one UDP message in a batch: payload storage plus the peer
// address. After ReadBatch, Buf[:N] is the received payload and Addr the
// source; before WriteBatch, Buf is the exact wire to send and Addr the
// destination.
type Datagram struct {
	Buf  []byte
	N    int
	Addr netip.AddrPort
}

// UDPBatch moves many datagrams per syscall over one UDP socket. On
// Linux (*net.UDPConn) it drives recvmmsg/sendmmsg through the
// socket's syscall.RawConn — integrated with the runtime poller, so
// read deadlines and non-blocking waits behave exactly like ReadFrom —
// and everywhere else (other platforms, vnet PacketConns) it degrades
// to single-datagram ReadFrom/WriteTo with the same interface.
//
// A UDPBatch is owned by one goroutine (its serving shard): the batch
// headers and sockaddr scratch are reused across calls without locking.
// Multiple UDPBatch instances over the same socket are fine — the
// kernel serializes datagram delivery per fd, and a run received whole
// goes to the instance that received it.
type UDPBatch struct {
	pc  net.PacketConn
	bc  BatchConn // non-nil when pc moves batches natively
	sys *batchSys // non-nil when the platform fast path is usable
}

// BatchConn is implemented by PacketConns that move whole datagram
// batches per operation without a kernel in between (in-process
// fabrics). The contract mirrors UDPBatch: on write, each Datagram's
// Buf is the exact wire image and Addr the destination; on read, the
// implementation fills Buf, sets N and Addr, and returns how many
// slots it used. UDPBatch delegates to it when present, so batch-aware
// consumers stay batched end to end off real sockets too.
type BatchConn interface {
	ReadBatch(ms []Datagram) (int, error)
	WriteBatch(ms []Datagram) (int, error)
}

// ListenUDPUnconnected opens the unconnected UDP socket a replay querier
// sends all its UDP queries through. The socket family must match the
// destination: an unconnected dual-stack socket rejects AF_INET
// sockaddrs at sendmmsg time.
func ListenUDPUnconnected(dst netip.AddrPort) (net.PacketConn, error) {
	network := "udp6"
	if dst.Addr().Unmap().Is4() {
		network = "udp4"
	}
	return net.ListenUDP(network, nil)
}

// readBuffer is the receive buffer asked for on the UDP sockets that
// carry bulk traffic: server shards and replay queriers. A reader held
// off its core for 30–40 ms (a host stall) comes back to a burst the
// default 208 KiB overflows, and every datagram it drops is a lost
// query. The kernel grants at most net.core.rmem_max.
const readBuffer = 4 << 20

// GrowReadBuffer asks for readBuffer bytes of receive buffer on pc when
// pc is a socket that has one (in-process fabrics have none). A refusal
// leaves the kernel's default in place.
func GrowReadBuffer(pc net.PacketConn) {
	if rb, ok := pc.(interface{ SetReadBuffer(int) error }); ok {
		//ldp:nolint errcheck — a refusal leaves the default buffer, which is all the caller could do about it
		_ = rb.SetReadBuffer(readBuffer)
	}
}

// NewUDPBatch wraps pc for batched I/O, detecting whether the platform
// fast path applies. Batched reports which path was selected.
func NewUDPBatch(pc net.PacketConn) *UDPBatch {
	bc, _ := pc.(BatchConn)
	return &UDPBatch{pc: pc, bc: bc, sys: newBatchSys(pc)}
}

// Batched reports whether reads and writes move multiple datagrams per
// operation (false on the portable fallback).
func (b *UDPBatch) Batched() bool { return b.sys != nil || b.bc != nil }

// ReadBatch blocks until at least one datagram is available and fills
// as many of ms as one syscall yields, one datagram per slot, returning
// the count. Each ms[i] must carry a Buf with room for a full message.
// Deadline expiry on the underlying socket surfaces as a net.Error with
// Timeout()==true, same as ReadFrom. On Linux the first ReadBatch turns
// on UDP_GRO: a run that left its sender as one segmented message is
// received as one message and split here, and the datagrams that do not
// fit ms come first from the next ReadBatch. A socket read through
// ReadBatch must be read only through it, since ReadFrom would take a
// run for one datagram.
func (b *UDPBatch) ReadBatch(ms []Datagram) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	if b.bc != nil {
		return b.bc.ReadBatch(ms)
	}
	if b.sys != nil {
		return b.sys.readBatch(ms)
	}
	n, addr, err := b.pc.ReadFrom(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	ms[0].N = n
	ms[0].Addr = AddrPortOf(addr)
	return 1, nil
}

// WriteBatch sends every datagram in ms, batching syscalls where the
// platform allows, and returns how many were handed to the kernel.
// Per-datagram send failures (an ICMP-unreachable from an earlier
// reply, a vanished client) are skipped, not fatal: the datagram is
// dropped exactly as a lone WriteTo error would be, and the rest of the
// batch still goes out. Only socket-level failures (closed fd) return
// an error. On Linux a run of datagrams of one length to one
// destination leaves as one UDP_SEGMENT message, which every receiver
// still reads as separate datagrams; the count is of datagrams.
func (b *UDPBatch) WriteBatch(ms []Datagram) (int, error) {
	if b.bc != nil {
		return b.bc.WriteBatch(ms)
	}
	if b.sys != nil {
		return b.sys.writeBatch(ms)
	}
	sent := 0
	for i := range ms {
		if _, err := b.pc.WriteTo(ms[i].Buf, net.UDPAddrFromAddrPort(ms[i].Addr)); err != nil {
			if isClosedConn(err) {
				return sent, err
			}
			continue // per-datagram failure: drop this reply, keep going
		}
		sent++
	}
	return sent, nil
}

// coalesced is one message a UDP_GRO socket hands up for a run of
// datagrams from one source: their payloads back to back, each seg
// bytes long but the last, which may be shorter.
type coalesced struct {
	buf  []byte
	seg  int // 0: the message is one datagram
	addr netip.AddrPort
}

// splitCoalesced fills ms, one datagram per slot and in order, with the
// datagrams of msgs that start at byte off of msgs[head]. Each payload
// is copied into its slot's Buf and truncated to it, as recvmmsg
// truncates. It returns the slots filled and where the datagrams still
// left start; head == len(msgs) when none are left.
func splitCoalesced(ms []Datagram, msgs []coalesced, head, off int) (n, nextHead, nextOff int) {
	for ; n < len(ms) && head < len(msgs); n++ {
		m := &msgs[head]
		end := len(m.buf)
		if m.seg > 0 && off+m.seg < end {
			end = off + m.seg
		}
		ms[n].N = copy(ms[n].Buf, m.buf[off:end])
		ms[n].Addr = m.addr
		if off = end; off == len(m.buf) {
			head, off = head+1, 0
		}
	}
	return n, head, off
}

// isClosedConn reports the unrecoverable "socket is gone" condition.
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// BatchLen is the capacity of pooled datagram batches: large enough to
// amortize one syscall over ~32 messages, small enough that a batch of
// full-size buffers stays cache-friendly.
const BatchLen = 32

// batchBufCap sizes each pooled datagram's Buf. DNS-over-UDP replies cap
// at the advertised EDNS size; 4 KiB covers every size the replay and
// serving paths negotiate.
const batchBufCap = 4096

var batchPool = sync.Pool{
	New: func() any {
		ms := make([]Datagram, BatchLen)
		for i := range ms {
			ms[i].Buf = make([]byte, batchBufCap)
		}
		return &ms
	},
}

// GetBatch returns a pooled []Datagram of length BatchLen whose Bufs are
// pre-sized scratch. Like GetBuf, the storage is transient: the batch and
// every view into its Bufs are valid only until PutBatch — callers that
// need a datagram beyond that must copy it out first.
func GetBatch() *[]Datagram {
	return batchPool.Get().(*[]Datagram)
}

// PutBatch recycles a batch obtained from GetBatch. The caller must have
// dropped every reference into the batch's Bufs; Buf slices that were
// resliced (ReadBatch shrinks nothing, but callers might) are restored to
// full capacity so the next user sees uniform scratch.
func PutBatch(ms *[]Datagram) {
	s := *ms
	for i := range s {
		s[i].Buf = s[i].Buf[:cap(s[i].Buf)]
		s[i].N = 0
		s[i].Addr = netip.AddrPort{}
	}
	batchPool.Put(ms)
}

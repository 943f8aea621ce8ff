//go:build linux && (amd64 || arm64)

package transport

import (
	"net"
	"net/netip"
	"runtime"
	"syscall"
	"unsafe"
)

// batchSys is the Linux recvmmsg/sendmmsg implementation behind
// UDPBatch. All scratch (mmsghdr vectors, iovecs, sockaddr storage,
// segment control messages, receive buffers) is sized to the largest
// batch seen and reused, so a warm shard's loop performs zero
// allocations per batch.
type batchSys struct {
	raw syscall.RawConn

	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny
	segs  []segCmsg

	// segment: writes send each run of equal datagrams as one
	// UDP_SEGMENT message. Cleared for good when the kernel refuses one.
	segment bool

	// gro: reads take each run as one UDP_GRO message, received into
	// groBufs with its control messages in ctls, and split from rcvd
	// into the caller's slots; rcvd[head:], from byte off of rcvd[head],
	// are datagrams received but not yet returned. groAsked: the first
	// read has asked the kernel for UDP_GRO.
	gro, groAsked bool
	groBufs       []byte
	ctls          []ctlBuf
	rcvd          []coalesced
	head, off     int

	// The poller callbacks are built once and pass operands and results
	// through these fields: a closure per call escapes, and put three
	// allocations on every batch.
	recv, send func(fd uintptr) bool
	from, msgs int // send: first header still to go, headers in use
	n          int
	errno      syscall.Errno
}

// UDP segmentation offload (UDP_SEGMENT, Linux 4.18): one sendmmsg
// message carries a run of datagrams back to back, and a control
// message tells the kernel the segment size to cut it back into. A
// run is consecutive datagrams to one destination, all of one length.
const (
	udpSegment = 103 // UDP_SEGMENT, at level IPPROTO_UDP
	// segMaxLen is the longest datagram sent as a segment: the IPv6
	// minimum MTU less the IPv6 and UDP headers, so no path MTU that
	// IPv6 allows makes the kernel refuse a segment.
	segMaxLen   = 1232
	segMaxCount = 64    // UDP_MAX_SEGMENTS in the kernels that brought UDP_SEGMENT
	segMaxBytes = 65000 // the run must fit one UDP payload
)

// UDP generic receive offload (UDP_GRO, Linux 5.0): a socket with the
// option set is handed each run that arrived as one segmented message
// (or that the NIC's GRO merged) as one message, and a control message
// gives the segment size to cut it back at.
const (
	udpGRO = 104 // UDP_GRO, at level IPPROTO_UDP
	// groMsgs is the most messages one coalescing receive takes. Each
	// needs a buffer of groBufLen, the largest UDP payload, so 8 keeps a
	// reader at 512 KiB of address space; a batch of single datagrams
	// takes 8 per syscall, not up to the caller's slot count.
	groMsgs   = 8
	groBufLen = 1 << 16
)

// ctlBuf is one message's receive control buffer, 8-byte aligned as
// cmsghdrs must be: the UDP_GRO control message takes 24 bytes of it,
// and a timestamp's 32 more would fit.
type ctlBuf [8]uint64

// segCmsg is one UDP_SEGMENT control message, padded to
// CMSG_SPACE(sizeof(uint16)) on 64-bit targets.
type segCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// mmsghdr mirrors struct mmsghdr: one msghdr plus the per-message byte
// count the kernel fills in (recvmmsg) or reports (sendmmsg). The
// trailing pad reproduces the C struct's alignment on 64-bit targets.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// newBatchSys returns the fast path when pc is a real UDP socket, nil
// otherwise (vnet fabrics and wrapped conns use the portable fallback).
func newBatchSys(pc net.PacketConn) *batchSys {
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		return nil
	}
	raw, err := uc.SyscallConn()
	if err != nil {
		return nil
	}
	b := &batchSys{raw: raw}
	// A kernel that knows UDP_SEGMENT answers getsockopt for it; an
	// older one would ignore the control message and send each run as
	// one long datagram.
	//ldp:nolint errcheck — a failed Control leaves segment unset: the unsegmented path
	_ = raw.Control(func(fd uintptr) {
		_, err := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
		b.segment = err == nil
	})
	b.recv = func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&b.hdrs[0])), uintptr(len(b.hdrs)),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN || e == syscall.EINTR {
			return false // re-arm on the poller and retry
		}
		b.n, b.errno = int(r), e
		return true
	}
	b.send = func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&b.hdrs[b.from])), uintptr(b.msgs-b.from),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN || e == syscall.EINTR {
			return false
		}
		b.n, b.errno = int(r), e
		return true
	}
	return b
}

// grow sizes the scratch vectors for a batch of n messages.
func (b *batchSys) grow(n int) {
	if cap(b.hdrs) < n {
		b.hdrs = make([]mmsghdr, n)
		b.iovs = make([]syscall.Iovec, n)
		b.names = make([]syscall.RawSockaddrAny, n)
		b.segs = make([]segCmsg, n)
	}
	b.hdrs = b.hdrs[:n]
	b.iovs = b.iovs[:n]
	b.names = b.names[:n]
}

// readBatch fills ms with datagrams, one per slot. The first call asks
// for UDP_GRO: a socket only ever written through its UDPBatch (and
// read with ReadFrom) must keep receiving plain datagrams.
func (b *batchSys) readBatch(ms []Datagram) (int, error) {
	if !b.groAsked {
		b.groAsked = true
		//ldp:nolint errcheck — a failed Control leaves gro unset: the plain path
		_ = b.raw.Control(func(fd uintptr) {
			b.gro = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1) == nil
		})
	}
	if b.gro {
		return b.readCoalesced(ms)
	}
	b.grow(len(ms))
	for i := range ms {
		b.iovs[i].Base = &ms[i].Buf[0]
		b.iovs[i].SetLen(len(ms[i].Buf))
		b.names[i] = syscall.RawSockaddrAny{}
		b.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&b.names[i])),
			Namelen: syscall.SizeofSockaddrAny,
			Iov:     &b.iovs[i],
			Iovlen:  1,
		}}
	}
	if err := b.raw.Read(b.recv); err != nil {
		return 0, err // deadline expiry / closed socket, as a net.Error
	}
	if b.errno != 0 {
		return 0, b.errno
	}
	for i := 0; i < b.n; i++ {
		ms[i].N = int(b.hdrs[i].n)
		ms[i].Addr = sockaddrToAddrPort(&b.names[i])
	}
	return b.n, nil
}

// readCoalesced is readBatch on a UDP_GRO socket: the datagrams left
// over from the last receive come first, and a receive is made only
// when none are left, since it reuses the buffers they sit in.
func (b *batchSys) readCoalesced(ms []Datagram) (int, error) {
	if b.head == len(b.rcvd) {
		if err := b.receive(min(len(ms), groMsgs)); err != nil {
			return 0, err
		}
	}
	var n int
	n, b.head, b.off = splitCoalesced(ms, b.rcvd, b.head, b.off)
	return n, nil
}

// receive takes up to k messages into the private buffers and sets
// rcvd to them.
func (b *batchSys) receive(k int) error {
	if b.groBufs == nil {
		b.groBufs = b.mapBufs()
		b.ctls = make([]ctlBuf, groMsgs)
		b.rcvd = make([]coalesced, 0, groMsgs)
	}
	b.grow(k)
	for i := range k {
		b.iovs[i].Base = &b.groBufs[i*groBufLen]
		b.iovs[i].SetLen(groBufLen)
		b.names[i] = syscall.RawSockaddrAny{}
		b.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&b.names[i])),
			Namelen: syscall.SizeofSockaddrAny,
			Iov:     &b.iovs[i],
			Iovlen:  1,
			Control: (*byte)(unsafe.Pointer(&b.ctls[i])),
		}}
		b.hdrs[i].hdr.SetControllen(int(unsafe.Sizeof(b.ctls[i])))
	}
	if err := b.raw.Read(b.recv); err != nil {
		return err
	}
	if b.errno != 0 {
		return b.errno
	}
	b.rcvd = b.rcvd[:b.n]
	for i := range b.rcvd {
		h := &b.hdrs[i].hdr
		ctl := unsafe.Slice((*byte)(unsafe.Pointer(&b.ctls[i])), h.Controllen)
		b.rcvd[i] = coalesced{
			buf:  b.groBufs[i*groBufLen:][:b.hdrs[i].n],
			seg:  groSize(ctl),
			addr: sockaddrToAddrPort(&b.names[i]),
		}
	}
	b.head, b.off = 0, 0
	return nil
}

// mapBufs returns the groMsgs receive buffers, mapped outside the Go
// heap and unmapped when b is collected. The kernel makes a mapped page
// resident only when a message first reaches it, where the allocator
// zeroes a reused heap span and so makes every page of it resident.
func (b *batchSys) mapBufs() []byte {
	mem, err := syscall.Mmap(-1, 0, groMsgs*groBufLen,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return make([]byte, groMsgs*groBufLen)
	}
	//ldp:nolint errcheck — nothing is left to tell of a failed unmap
	runtime.AddCleanup(b, func(mem []byte) { _ = syscall.Munmap(mem) }, mem)
	return mem
}

// groSize walks a message's control messages for the UDP_GRO segment
// size; 0 means the message is one datagram.
func groSize(ctl []byte) int {
	for len(ctl) >= syscall.SizeofCmsghdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctl[0]))
		if h.Len < syscall.SizeofCmsghdr || h.Len > uint64(len(ctl)) {
			return 0
		}
		if h.Level == syscall.IPPROTO_UDP && h.Type == udpGRO && h.Len >= uint64(syscall.CmsgLen(4)) {
			return int(*(*int32)(unsafe.Pointer(&ctl[syscall.SizeofCmsghdr])))
		}
		ctl = ctl[min(syscall.CmsgSpace(int(h.Len)-syscall.SizeofCmsghdr), len(ctl)):]
	}
	return 0
}

// writeBatch sends ms in as few sendmmsg calls as the kernel takes,
// each run of equal datagrams as one segmented message, and returns how
// many datagrams the kernel accepted.
func (b *batchSys) writeBatch(ms []Datagram) (int, error) {
	b.grow(len(ms))
	for i := range ms {
		b.iovs[i].Base = &ms[i].Buf[0]
		b.iovs[i].SetLen(len(ms[i].Buf))
	}
	b.msgs = b.pack(ms, 0, 0, b.segment)
	next, skipped := 0, 0 // first datagram of hdrs[b.from]; datagrams refused
	for b.from = 0; b.from < b.msgs; {
		if err := b.raw.Write(b.send); err != nil {
			return next - skipped, err // closed socket; shutdown handles it
		}
		if b.errno == 0 {
			for _, h := range b.hdrs[b.from : b.from+b.n] {
				next += int(h.hdr.Iovlen)
			}
			b.from += b.n
			continue
		}
		if b.hdrs[b.from].hdr.Iovlen > 1 {
			// The kernel refused a segmented message. Send the rest of
			// the batch one datagram per message; if the refusal is of
			// segmentation itself (no checksum, IPsec, a path MTU below
			// the segment), segment no more on this socket.
			if b.errno == syscall.EINVAL || b.errno == syscall.EIO {
				b.segment = false
			}
			b.msgs = b.pack(ms, b.from, next, false)
			continue
		}
		// A per-datagram failure (async ICMP error, unreachable client,
		// oversized datagram) poisons only the head of the remaining
		// vector: skip that one datagram, count it as not sent, and
		// keep sending the rest.
		b.from++
		next++
		skipped++
	}
	return next - skipped, nil
}

// pack fills headers from hdrs[k] on for the datagrams ms[i:] and
// returns the header count. With seg set, each run (see udpSegment) of
// up to segMaxCount datagrams of at most segMaxLen bytes, segMaxBytes
// in all, shares one header whose iovecs are the run's buffers.
func (b *batchSys) pack(ms []Datagram, k, i int, seg bool) int {
	for ; i < len(ms); k++ {
		d := &ms[i]
		size, n := len(d.Buf), 1
		if seg && size <= segMaxLen {
			for i+n < len(ms) && n < segMaxCount && (n+1)*size <= segMaxBytes &&
				len(ms[i+n].Buf) == size && ms[i+n].Addr == d.Addr {
				n++
			}
		}
		h := syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&b.names[k])),
			Namelen: addrPortToSockaddr(&b.names[k], d.Addr),
			Iov:     &b.iovs[i],
			Iovlen:  uint64(n),
		}
		if n > 1 {
			c := &b.segs[k]
			c.hdr = syscall.Cmsghdr{Level: syscall.IPPROTO_UDP, Type: udpSegment}
			c.hdr.SetLen(syscall.CmsgLen(2))
			c.size = uint16(size)
			h.Control = (*byte)(unsafe.Pointer(c))
			h.SetControllen(syscall.CmsgSpace(2))
		}
		b.hdrs[k] = mmsghdr{hdr: h}
		i += n
	}
	return k
}

// sockaddrToAddrPort decodes the kernel-filled source address.
func sockaddrToAddrPort(sa *syscall.RawSockaddrAny) netip.AddrPort {
	switch sa.Addr.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa6.Port))
		addr := netip.AddrFrom16(sa6.Addr).Unmap()
		return netip.AddrPortFrom(addr, uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}

// addrPortToSockaddr encodes a destination, returning the sockaddr
// length sendmmsg expects.
func addrPortToSockaddr(sa *syscall.RawSockaddrAny, ap netip.AddrPort) uint32 {
	port := ap.Port()
	if ap.Addr().Is4() || ap.Addr().Is4In6() {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: ap.Addr().Unmap().As4()}
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		p[0], p[1] = byte(port>>8), byte(port)
		return syscall.SizeofSockaddrInet4
	}
	sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
	*sa6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: ap.Addr().As16()}
	p := (*[2]byte)(unsafe.Pointer(&sa6.Port))
	p[0], p[1] = byte(port>>8), byte(port)
	return syscall.SizeofSockaddrInet6
}

//go:build linux && (amd64 || arm64)

package transport

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// batchSys is the Linux recvmmsg/sendmmsg implementation behind
// UDPBatch. All scratch (mmsghdr vectors, iovecs, sockaddr storage) is
// sized to the largest batch seen and reused, so a warm shard's read
// loop performs zero allocations per batch.
type batchSys struct {
	raw syscall.RawConn

	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny

	// The poller callbacks are built once and pass operands and results
	// through these fields: a closure per call escapes, and put three
	// allocations on every batch.
	recv, send func(fd uintptr) bool
	from       int // send: first header still to go
	n          int
	errno      syscall.Errno
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
			uintptr(unsafe.Pointer(&b.hdrs[b.from])), uintptr(len(b.hdrs)-b.from),
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
	}
	b.hdrs = b.hdrs[:n]
	b.iovs = b.iovs[:n]
	b.names = b.names[:n]
}

func (b *batchSys) readBatch(ms []Datagram) (int, error) {
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

func (b *batchSys) writeBatch(ms []Datagram) (int, error) {
	b.grow(len(ms))
	for i := range ms {
		b.iovs[i].Base = &ms[i].Buf[0]
		b.iovs[i].SetLen(len(ms[i].Buf))
		nameLen := addrPortToSockaddr(&b.names[i], ms[i].Addr)
		b.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&b.names[i])),
			Namelen: nameLen,
			Iov:     &b.iovs[i],
			Iovlen:  1,
		}}
	}
	skipped := 0
	for b.from = 0; b.from < len(ms); {
		if err := b.raw.Write(b.send); err != nil {
			return b.from - skipped, err // closed socket; shutdown handles it
		}
		if b.errno != 0 {
			// A per-datagram failure (async ICMP error, unreachable
			// client, oversized datagram) poisons only the head of the
			// remaining vector: skip that one datagram, count it as not
			// sent, and keep sending the rest.
			b.from++
			skipped++
			continue
		}
		b.from += b.n
	}
	return b.from - skipped, nil
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

//go:build linux && (amd64 || arm64)

package transport

import (
	"net"
	"os"
	"syscall"
)

// udpReader reads a connected UDP socket through its syscall.RawConn so
// that a buffer is borrowed only once a datagram is there: the read
// callback takes a pooled buffer on entry and, on EAGAIN, hands it back
// before the runtime poller parks the goroutine. The syscalls are
// net.Conn.Read's (read(2), then the poller's wait), and deadlines and
// Close interrupt a parked read the same way. The callback is built once
// per endpoint and passes its results through the fields, as batchSys
// does, so a datagram costs no allocation. One reader at a time.
type udpReader struct {
	raw  syscall.RawConn
	read func(fd uintptr) bool
	bp   *[]byte
	n    int
	err  error
}

// newUDPReader returns the buffer-on-ready reader for a real UDP socket,
// nil for anything else.
func newUDPReader(c net.Conn) *udpReader {
	uc, ok := c.(*net.UDPConn)
	if !ok {
		return nil
	}
	raw, err := uc.SyscallConn()
	if err != nil {
		return nil
	}
	r := &udpReader{raw: raw}
	r.read = func(fd uintptr) bool {
		r.bp = GetBuf()
		for {
			n, err := syscall.Read(int(fd), *r.bp)
			switch err {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				PutBuf(r.bp) // park holding nothing
				r.bp = nil
				return false
			}
			r.n, r.err = n, err
			return true
		}
	}
	return r
}

func (r *udpReader) recv() (*[]byte, int, error) {
	err := r.raw.Read(r.read)
	bp := r.bp
	r.bp = nil
	if err == nil && r.err != nil {
		err = os.NewSyscallError("read", r.err) // e.g. ECONNREFUSED from an earlier send
	}
	if err != nil {
		PutBuf(bp)
		return nil, 0, err
	}
	return bp, r.n, nil
}

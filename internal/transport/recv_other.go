//go:build !linux || !(amd64 || arm64)

package transport

import "net"

// udpReader is unavailable: connected UDP endpoints on every other
// platform keep the blocking read (borrow first, then wait).
type udpReader struct{}

func newUDPReader(net.Conn) *udpReader { return nil }

func (*udpReader) recv() (*[]byte, int, error) { panic("unreachable") }

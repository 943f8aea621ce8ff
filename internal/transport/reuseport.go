package transport

import (
	"context"
	"net"
	"net/netip"
)

// ListenUDPReusePort binds n UDP sockets to the same address so the
// kernel load-balances incoming datagrams across them — one socket per
// serving shard, no shared accept queue, no cross-shard contention on
// the receive path. On Linux every socket carries SO_REUSEPORT; on
// platforms without kernel-side reuse-port steering it degrades to the
// portable single-socket fallback (one socket, shards share it), so
// callers size their shard set from the returned slice, never from n.
// Each socket asks for a large receive buffer (GrowReadBuffer), so a
// shard that loses its core for a while does not drop the backlog.
//
// With addr ending in ":0" the first socket picks the port and the
// remaining sockets bind to the resolved address, so the whole group
// shares one ephemeral port.
func ListenUDPReusePort(addr string, n int) ([]net.PacketConn, netip.AddrPort, error) {
	if n < 1 {
		n = 1
	}
	if !ReusePortAvailable() {
		n = 1
	}
	lc := net.ListenConfig{Control: reusePortControl}
	conns := make([]net.PacketConn, 0, n)
	bound := netip.AddrPort{}
	for i := 0; i < n; i++ {
		target := addr
		if i > 0 {
			target = bound.String()
		}
		pc, err := lc.ListenPacket(context.Background(), "udp", target)
		if err != nil {
			for _, c := range conns {
				c.Close() //ldp:nolint errcheck — unwinding a partial bind; the bind error is the one reported
			}
			return nil, netip.AddrPort{}, err
		}
		if i == 0 {
			bound = AddrPortOf(pc.LocalAddr())
		}
		GrowReadBuffer(pc)
		conns = append(conns, pc)
	}
	return conns, bound, nil
}

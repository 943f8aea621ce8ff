package transport

import (
	"net"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestReadBufferAbsorbsBurst: the sockets the library opens for bulk
// UDP — a server shard from ListenUDPReusePort, a replay querier's
// socket after GrowReadBuffer — hold a 2 000-datagram burst that
// arrives while nothing reads them. The kernel's 208 KiB default holds
// a few hundred.
func TestReadBufferAbsorbsBurst(t *testing.T) {
	raw, err := os.ReadFile("/proc/sys/net/core/rmem_max")
	if err != nil {
		t.Skipf("rmem_max unknown: %v", err)
	}
	if max, err := strconv.Atoi(strings.TrimSpace(string(raw))); err != nil || max < readBuffer {
		t.Skipf("net.core.rmem_max = %s, below the %d the test needs", strings.TrimSpace(string(raw)), readBuffer)
	}
	const burst = 2000

	shards, _, err := ListenUDPReusePort("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	querier, err := ListenUDPUnconnected(netip.MustParseAddrPort("127.0.0.1:53"))
	if err != nil {
		t.Fatal(err)
	}
	GrowReadBuffer(querier)
	sender, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	for name, pc := range map[string]net.PacketConn{"shard": shards[0], "querier": querier} {
		defer pc.Close()
		to := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: pc.LocalAddr().(*net.UDPAddr).Port}
		msg := make([]byte, 64)
		for i := 0; i < burst; i++ {
			if _, err := sender.WriteTo(msg, to); err != nil {
				t.Fatal(err)
			}
		}
		got := 0
		buf := make([]byte, 512)
		for got < burst {
			if err := pc.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := pc.ReadFrom(buf); err != nil {
				break
			}
			got++
		}
		if got != burst {
			t.Errorf("%s socket kept %d of a %d-datagram burst", name, got, burst)
		}
	}
}

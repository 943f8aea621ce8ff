package transport

import (
	"context"
	"errors"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldplayer/internal/vnet"
)

// echoNet is a fabric with a client host and an echo peer at 10.6.0.1.
func echoNet(t *testing.T) (*vnet.Network, *VNetHost, netip.AddrPort) {
	t.Helper()
	n := vnet.New()
	echo := netip.AddrPortFrom(netip.MustParseAddr("10.6.0.1"), 53)
	n.Attach(echo.Addr(), func(pkt vnet.Packet) {
		n.Send(vnet.Packet{Src: pkt.Dst, Dst: pkt.Src, Payload: pkt.Payload}) // an unbound reply port is the drop the tests look for
	})
	h := NewVNetHost(n, netip.MustParseAddr("10.6.0.2"))
	t.Cleanup(h.Close)
	return n, h, echo
}

// TestVNetDialRoundTripAllocs: a dialed exchange allocates in
// proportion to what it carries, not to the queue depth it may use.
func TestVNetDialRoundTripAllocs(t *testing.T) {
	_, h, echo := echoNet(t)
	msg := make([]byte, 48)
	buf := make([]byte, 512)
	round := func() {
		ep, err := h.Dial(context.Background(), UDP, echo)
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Send(msg); err != nil {
			t.Fatal(err)
		}
		if n, err := ep.Recv(buf); err != nil || n != len(msg) {
			t.Fatalf("recv: n=%d err=%v", n, err)
		}
		ep.Close()
	}
	round() // warm
	const rounds = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= 2048 {
		t.Fatalf("dial/send/recv/close allocates %d B per round, want < 2 KiB", per)
	}
}

// TestVNetDialQueueDepth: a dialed endpoint queues vnetDialDepth
// packets and drops the next, and keeps working once drained.
func TestVNetDialQueueDepth(t *testing.T) {
	n, h, echo := echoNet(t)
	ep, err := h.Dial(context.Background(), UDP, echo)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	flood := func(k int) {
		for i := 0; i < k; i++ {
			if err := n.Send(vnet.Packet{Src: echo, Dst: ep.LocalAddr(), Payload: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain := func() (got int) {
		buf := make([]byte, 8)
		for {
			ep.SetDeadline(time.Now().Add(20 * time.Millisecond))
			n, err := ep.Recv(buf)
			if errors.Is(err, ErrTimeout) {
				return got
			}
			if err != nil || n != 1 || buf[0] != byte(got) {
				t.Fatalf("packet %d: n=%d payload=%d err=%v", got, n, buf[0], err)
			}
			got++
		}
	}
	flood(vnetDialDepth + 44)
	if got := drain(); got != vnetDialDepth {
		t.Fatalf("queued %d packets, want %d (packet %d must drop)", got, vnetDialDepth, vnetDialDepth+1)
	}
	flood(3)
	if got := drain(); got != 3 {
		t.Fatalf("after draining, queued %d of 3", got)
	}
}

// TestVNetCloseRace closes endpoints while a receiver is parked on them
// and a sender is delivering, then rebinds the same port: the receiver
// must be released, and nothing sent to the closed endpoint may reach
// its successor. Run with -race.
func TestVNetCloseRace(t *testing.T) {
	n, h, echo := echoNet(t)
	for iter := 0; iter < 50; iter++ {
		ep, err := h.Dial(context.Background(), UDP, echo)
		if err != nil {
			t.Fatal(err)
		}
		local := ep.LocalAddr()

		recvDone := make(chan error, 1)
		go func() {
			buf := make([]byte, 8)
			for {
				if _, err := ep.Recv(buf); err != nil {
					recvDone <- err
					return
				}
			}
		}()
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				n.Send(vnet.Packet{Src: echo, Dst: local, Payload: []byte("old")}) // delivery to a closing port may legitimately fail
			}
		}()
		time.Sleep(time.Millisecond)
		ep.Close()
		select {
		case err := <-recvDone:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("parked Recv returned %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close left a parked Recv blocked")
		}
		stop.Store(true)
		wg.Wait()

		// The next dial lands on the same port.
		h.mu.Lock()
		h.nextPort = local.Port() - 1
		h.mu.Unlock()
		next, err := h.Dial(context.Background(), UDP, echo)
		if err != nil {
			t.Fatal(err)
		}
		if next.LocalAddr() != local {
			t.Fatalf("rebound %v, want %v", next.LocalAddr(), local)
		}
		if err := next.Send([]byte("new")); err != nil {
			t.Fatal(err)
		}
		next.SetDeadline(time.Now().Add(20 * time.Millisecond))
		buf := make([]byte, 8)
		for k := 0; ; k++ {
			m, err := next.Recv(buf)
			if errors.Is(err, ErrTimeout) {
				if k != 1 {
					t.Fatalf("successor got %d packets, want only its own", k)
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := string(buf[:m]); got != "new" {
				t.Fatalf("successor on port %d received %q sent to the closed endpoint", local.Port(), got)
			}
		}
		next.Close()
	}
}

// TestPortQueueWakeChain: the wake channel holds a single signal, so
// when one receiver takes it and pops while more packets are queued, a
// wake must stay pending for the next receiver (server shards share one
// PacketConn's queue). Otherwise a receiver that looked at the queue
// before the burst and parks after it sleeps through a queued packet.
func TestPortQueueWakeChain(t *testing.T) {
	var q portQueue
	q.init(vnetListenDepth)
	q.push(vnet.Packet{Payload: []byte{1}})
	q.push(vnet.Packet{Payload: []byte{2}}) // the wake is already pending: no second signal
	<-q.wake                                // a first receiver wakes
	if _, ok, err := q.pop(); !ok || err != nil {
		t.Fatalf("pop: ok=%v err=%v", ok, err)
	}
	select {
	case <-q.wake:
	default:
		t.Fatal("a packet is queued but no wake is pending for the next receiver")
	}
}

package transport

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// fakeEndpoint never answers: sends succeed (recording the patched ID)
// and Recv blocks until Close.
type fakeEndpoint struct {
	mu      sync.Mutex
	ids     []uint16
	done    chan struct{}
	once    sync.Once
	sendErr error
}

func newFakeEndpoint() *fakeEndpoint { return &fakeEndpoint{done: make(chan struct{})} }

func (e *fakeEndpoint) Send(msg []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sendErr != nil {
		return e.sendErr
	}
	e.ids = append(e.ids, uint16(msg[0])<<8|uint16(msg[1]))
	return nil
}

func (e *fakeEndpoint) Recv([]byte) (int, error) {
	<-e.done
	return 0, ErrClosed
}

func (e *fakeEndpoint) SetDeadline(time.Time) error { return nil }
func (e *fakeEndpoint) Close() error {
	e.once.Do(func() { close(e.done) })
	return nil
}
func (e *fakeEndpoint) LocalAddr() netip.AddrPort  { return netip.AddrPort{} }
func (e *fakeEndpoint) RemoteAddr() netip.AddrPort { return netip.AddrPort{} }

// TestConnIDAllocationSkipsInFlight: the ID counter must never hand out
// an ID that is still pending — the seed's nextID++ wrapped after 65536
// queries and silently overwrote the earlier entry.
func TestConnIDAllocationSkipsInFlight(t *testing.T) {
	ep := newFakeEndpoint()
	c := NewConn(ConnConfig{Dial: func() (Endpoint, error) { return ep, nil }})
	defer func() { c.Close(); c.Wait() }()
	wire := []byte{0, 0, 1, 2, 3, 4}

	// Fill the entire ID space: every send must get a distinct ID.
	for i := 0; i < 1<<16; i++ {
		if _, err := c.Send(wire, i); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if p := c.Pending(); p != 1<<16 {
		t.Fatalf("pending=%d, want %d", p, 1<<16)
	}
	seen := make(map[uint16]bool, 1<<16)
	for _, id := range ep.ids {
		if seen[id] {
			t.Fatalf("ID %d handed out twice while in flight", id)
		}
		seen[id] = true
	}

	// The 65537th send is refused, not silently overwritten, and the
	// exhaustion counter surfaces it.
	if _, err := c.Send(wire, -1); !errors.Is(err, ErrIDSpaceExhausted) {
		t.Fatalf("overflow send: %v", err)
	}
	if n := c.IDExhausted(); n != 1 {
		t.Fatalf("IDExhausted=%d, want 1", n)
	}
}

// TestConnIdleCloseDropsPending: when the idle timer closes an endpoint,
// its in-flight queries are failed out through OnDrop — the seed leaked
// them (re-dial reset the pending map), so they were never accounted.
func TestConnIdleCloseDropsPending(t *testing.T) {
	ep := newFakeEndpoint()
	dropped := make(chan any, 8)
	c := NewConn(ConnConfig{
		Dial:        func() (Endpoint, error) { return ep, nil },
		IdleTimeout: 50 * time.Millisecond,
		OnDrop:      func(tok any) { dropped <- tok },
	})
	defer func() { c.Close(); c.Wait() }()
	wire := []byte{0, 0, 9, 9}
	for i := 0; i < 3; i++ {
		if _, err := c.Send(wire, i); err != nil {
			t.Fatal(err)
		}
	}
	got := map[any]bool{}
	for i := 0; i < 3; i++ {
		select {
		case tok := <-dropped:
			got[tok] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of 3 pending queries dropped after idle close", i)
		}
	}
	for i := 0; i < 3; i++ {
		if !got[i] {
			t.Errorf("token %d never dropped", i)
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("pending=%d after idle close", c.Pending())
	}
}

// TestConnWriteErrorFailsOver: a send error detaches the endpoint, drops
// the other in-flight queries exactly once, and the next send redials.
func TestConnWriteErrorFailsOver(t *testing.T) {
	ep1, ep2 := newFakeEndpoint(), newFakeEndpoint()
	eps := []*fakeEndpoint{ep1, ep2}
	var dropped []any
	var mu sync.Mutex
	c := NewConn(ConnConfig{
		Dial: func() (Endpoint, error) {
			ep := eps[0]
			eps = eps[1:]
			return ep, nil
		},
		OnDrop: func(tok any) { mu.Lock(); dropped = append(dropped, tok); mu.Unlock() },
	})
	defer func() { c.Close(); c.Wait() }()
	wire := []byte{0, 0, 5, 5}
	if _, err := c.Send(wire, "a"); err != nil {
		t.Fatal(err)
	}
	ep1.mu.Lock()
	ep1.sendErr = errors.New("broken pipe")
	ep1.mu.Unlock()
	if _, err := c.Send(wire, "b"); err == nil {
		t.Fatal("send on broken endpoint succeeded")
	}
	mu.Lock()
	nd := len(dropped)
	mu.Unlock()
	if nd != 1 || dropped[0] != "a" {
		t.Fatalf("dropped=%v, want [a]", dropped)
	}
	fresh, err := c.Send(wire, "c")
	if err != nil || !fresh {
		t.Fatalf("redial send: fresh=%v err=%v", fresh, err)
	}
	if c.Dials() != 2 {
		t.Fatalf("dials=%d", c.Dials())
	}
}

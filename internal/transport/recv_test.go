package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
)

// streamPair is a streamEndpoint reading one end of an in-memory pipe;
// the test writes the other end.
func streamPair(t *testing.T) (*streamEndpoint, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return &streamEndpoint{conn: a}, b
}

// readers are the two ways a stream message is read: into the caller's
// buffer (Recv) and into one borrowed on arrival (RecvPooled).
var readers = []struct {
	name string
	read func(ep Endpoint) ([]byte, error)
}{
	{"Recv", func(ep Endpoint) ([]byte, error) {
		buf := make([]byte, BufSize)
		n, err := ep.Recv(buf)
		return buf[:n], err
	}},
	{"RecvPooled", func(ep Endpoint) ([]byte, error) {
		bp, n, err := RecvPooled(ep)
		if err != nil {
			if bp != nil {
				return nil, errors.New("buffer held on error")
			}
			return nil, err
		}
		defer PutBuf(bp)
		return append([]byte(nil), (*bp)[:n]...), nil
	}},
}

// TestStreamFraming covers the length-prefix edge cases on both read
// paths, and that the pooled one returns every buffer it borrows.
func TestStreamFraming(t *testing.T) {
	big := make([]byte, 65535)
	for i := range big {
		big[i] = byte(i * 7)
	}
	framed := func(msg []byte) []byte {
		b, err := dnsmsg.AppendTCPMsg(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name    string
		write   func(w net.Conn)
		want    []byte
		wantErr error
	}{
		{"zero-length prefix", func(w net.Conn) { w.Write([]byte{0, 0}) }, nil, dnsmsg.ErrLengthPrefix},
		{"eof mid-body", func(w net.Conn) { w.Write([]byte{0, 5, 'a', 'b'}); w.Close() }, nil, io.ErrUnexpectedEOF},
		{"eof mid-prefix", func(w net.Conn) { w.Write([]byte{0}); w.Close() }, nil, io.ErrUnexpectedEOF},
		{"eof before prefix", func(w net.Conn) { w.Close() }, nil, io.EOF},
		{"65535-byte message", func(w net.Conn) { w.Write(framed(big)) }, big, nil},
		{"one byte per write", func(w net.Conn) {
			for _, c := range framed([]byte("hello, dns")) {
				w.Write([]byte{c})
			}
		}, []byte("hello, dns"), nil},
	}
	for _, r := range readers {
		for _, tc := range cases {
			t.Run(r.name+"/"+tc.name, func(t *testing.T) {
				ep, w := streamPair(t)
				go tc.write(w)
				gets0, puts0 := obsBufGets.Value(), obsBufPuts.Value()
				got, err := r.read(ep)
				if tc.wantErr != nil {
					if !errors.Is(err, tc.wantErr) {
						t.Fatalf("err = %v, want %v", err, tc.wantErr)
					}
				} else if err != nil || string(got) != string(tc.want) {
					t.Fatalf("read %d bytes, %v; want %d bytes", len(got), err, len(tc.want))
				}
				if r.name == "RecvPooled" && obsBufGets.Value()-gets0 != obsBufPuts.Value()-puts0 {
					t.Fatalf("pool: %d gets, %d puts", obsBufGets.Value()-gets0, obsBufPuts.Value()-puts0)
				}
			})
		}
	}
}

// TestUDPRecvEdgeCases: over a connected UDP endpoint (RecvPooled's
// blocking fallback), a zero-length datagram is a message of length
// zero and the datagram behind it reads whole; a refused port fails the
// endpoint over with each in-flight token dropped exactly once;
// Close+Wait returns promptly with a read parked; and every buffer
// borrowed along the way is returned.
func TestUDPRecvEdgeCases(t *testing.T) {
	gets0, puts0 := obsBufGets.Value(), obsBufPuts.Value()
	d := &NetDialer{}

	t.Run("zero-length datagram", func(t *testing.T) {
		pc, addr, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		ep, err := d.Dial(context.Background(), UDP, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		to := net.UDPAddrFromAddrPort(ep.LocalAddr())
		for _, p := range [][]byte{{}, []byte("after")} {
			if _, err := pc.WriteTo(p, to); err != nil {
				t.Fatal(err)
			}
		}
		for _, want := range []string{"", "after"} {
			bp, n, err := RecvPooled(ep)
			if err != nil || string((*bp)[:n]) != want {
				t.Fatalf("RecvPooled = %d, %v; want %q", n, err, want)
			}
			PutBuf(bp)
		}
	})

	t.Run("connection refused", func(t *testing.T) {
		pc, dead, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		pc.Close() // nothing listens on dead any more
		var mu sync.Mutex
		drops := map[any]int{}
		dropped := make(chan struct{}, 8)
		c := NewConn(ConnConfig{
			Dial: func() (Endpoint, error) { return d.Dial(context.Background(), UDP, dead) },
			OnDrop: func(tok any) {
				mu.Lock()
				drops[tok]++
				mu.Unlock()
				dropped <- struct{}{}
			},
		})
		// Each query dies with its endpoint; the next send fails over to a
		// fresh one.
		for i, tok := range []string{"a", "b"} {
			fresh, err := c.Send([]byte{0, 0, 1, 0}, tok)
			if err != nil || !fresh {
				t.Fatalf("send %s: fresh=%v err=%v", tok, fresh, err)
			}
			select {
			case <-dropped:
			case <-time.After(5 * time.Second):
				t.Fatalf("refused query %s never dropped", tok)
			}
			if c.Dials() != uint64(i+1) {
				t.Fatalf("dials = %d after %s", c.Dials(), tok)
			}
		}
		c.Close()
		c.Wait()
		mu.Lock()
		defer mu.Unlock()
		if len(drops) != 2 || drops["a"] != 1 || drops["b"] != 1 {
			t.Fatalf("drops = %v, want a and b once each", drops)
		}
		if c.Pending() != 0 {
			t.Fatalf("pending = %d", c.Pending())
		}
	})

	t.Run("close with read parked", func(t *testing.T) {
		pc, silent, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		var drops atomic.Int64
		c := NewConn(ConnConfig{
			Dial:   func() (Endpoint, error) { return d.Dial(context.Background(), UDP, silent) },
			OnDrop: func(any) { drops.Add(1) },
		})
		for i := 0; i < 3; i++ {
			if _, err := c.Send([]byte{0, 0, 1, 0}, i); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(20 * time.Millisecond) // let the read loop park
		done := make(chan struct{})
		go func() { c.Close(); c.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("Close+Wait hung on a parked read")
		}
		if drops.Load() != 3 {
			t.Fatalf("drops = %d, want 3", drops.Load())
		}
	})

	if gets, puts := obsBufGets.Value()-gets0, obsBufPuts.Value()-puts0; gets != puts {
		t.Fatalf("pool: %d gets, %d puts", gets, puts)
	}
}

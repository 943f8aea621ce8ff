package transport_test

import (
	"context"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/transport"
)

// TestAllocBounds holds the exchange path's allocation bounds. Each row
// names the benchmark that reports the same op under `go test -bench`
// and the most allocations per op, counted as testing.AllocsPerRun
// counts them (truncated to a whole number, as -benchmem prints them).
// The server's allocations count too: it runs in the same process.
func TestAllocBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("every exchange takes its buffers from a sync.Pool")
	}
	ctx := context.Background()
	addr := udpTarget(t)
	x := &transport.Exchanger{Timeout: 2 * time.Second, DisableTCPFallback: true}
	vx, vaddr := vnetTarget(t)
	q := query(t, "small.x.test.", 1)
	resp := dnsmsg.GetMsg()
	defer dnsmsg.PutMsg(resp)
	send, _ := connSender(t)
	writeSegmented := segmentedWriter(t)
	readCoalesced := coalescedReader(t)
	// Fill the Conn's 1000-query pacing window first: the benchmark's
	// figure is the steady state behind it.
	sent := 0
	for ; sent < 2000; sent++ {
		send(t, sent)
	}

	for _, r := range []struct {
		bench string
		max   float64
		runs  int
		f     func(t *testing.T)
	}{
		{"BenchmarkExchangeUDP", 30, 1000, func(t *testing.T) {
			q.ID++
			if _, err := x.Exchange(ctx, addr, q); err != nil {
				t.Fatal(err)
			}
		}},
		{"BenchmarkExchangeUDPPooled", 18, 1000, func(t *testing.T) {
			q.ID++
			if err := x.ExchangeInto(ctx, addr, q, resp); err != nil {
				t.Fatal(err)
			}
		}},
		{"BenchmarkConnSendUDP", 1, 10000, func(t *testing.T) {
			send(t, sent)
			sent++
		}},
		{"BenchmarkUDPBatchWriteSegmented", 0, 1000, func(t *testing.T) { writeSegmented(t) }},
		{"BenchmarkUDPBatchReadCoalesced", 0, 1000, func(t *testing.T) { readCoalesced(t) }},
		{"BenchmarkExchangeVNet", 25, 1000, func(t *testing.T) {
			q.ID++
			if _, err := vx.Exchange(ctx, vaddr, q); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(r.bench, func(t *testing.T) {
			if got := testing.AllocsPerRun(r.runs, func() { r.f(t) }); got > r.max {
				t.Errorf("%.0f allocs/op, bound %.0f", got, r.max)
			} else {
				t.Logf("%.0f allocs/op, bound %.0f", got, r.max)
			}
		})
	}
}

package replay

import (
	"errors"
	"io"
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/trace"
)

var sourceWires = [][]byte{
	{0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 'a'},
	{0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 'b'},
	{0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 'c'},
}

// readAll drains src in reads of size batch, checking the BatchReader
// contract on the way: a short read is not an error, EOF comes alone.
func readAll(t *testing.T, src trace.BatchReader, batch int) []*trace.Event {
	t.Helper()
	var all []*trace.Event
	dst := make([]*trace.Event, batch)
	for {
		n, err := src.ReadBatch(dst)
		if errors.Is(err, io.EOF) {
			if n != 0 {
				t.Fatalf("EOF delivered with %d events", n)
			}
			return all
		}
		if err != nil || n == 0 {
			t.Fatalf("ReadBatch = %d, %v", n, err)
		}
		all = append(all, dst[:n]...)
	}
}

// TestRateSourceSchedule: event i is due exactly i/qps after the first,
// carries wire i mod wires from source i mod sources, and -count ends
// the stream mid-batch without losing the tail.
func TestRateSourceSchedule(t *testing.T) {
	const sources, qps, count = 4, 3000.0, 10
	evs := readAll(t, NewRateSource(sourceWires, sources, qps, count, 0), 4)
	if len(evs) != count {
		t.Fatalf("%d events, want %d", len(evs), count)
	}
	addrs := map[netip.Addr]bool{}
	for i, ev := range evs {
		if got, want := ev.Time.Sub(evs[0].Time), time.Duration(float64(i)/qps*float64(time.Second)); got != want {
			t.Errorf("event %d due at %v, want %v", i, got, want)
		}
		if ev.Src != evs[i%sources].Src {
			t.Errorf("event %d from %v, want source %d's %v", i, ev.Src, i%sources, evs[i%sources].Src)
		}
		if &ev.Wire[0] != &sourceWires[i%len(sourceWires)][0] || ev.Proto != trace.UDP || !ev.IsQuery() {
			t.Errorf("event %d is not UDP query wire %d", i, i%len(sourceWires))
		}
		addrs[ev.Src.Addr()] = true
	}
	if len(addrs) != sources {
		t.Errorf("%d distinct sources, want %d", len(addrs), sources)
	}
}

// TestRateSourceDuration: -duration cuts the schedule, not the clock —
// the events due before d and no others, however fast they are read.
func TestRateSourceDuration(t *testing.T) {
	// Due at 0, 1, 2 ms; the one at 3 ms is past d.
	if evs := readAll(t, NewRateSource(sourceWires, 2, 1000, 0, 2500*time.Microsecond), 2); len(evs) != 3 {
		t.Fatalf("%d events before 2.5 ms at 1 kq/s, want 3", len(evs))
	}
	// Both bounds set: the earlier one ends it.
	if evs := readAll(t, NewRateSource(sourceWires, 2, 1000, 2, time.Second), 32); len(evs) != 2 {
		t.Fatalf("%d events, want count's 2", len(evs))
	}
}

// TestWindowSourceBound drives the closed loop by hand, settling
// through the engine's three counters: never more than window events
// are unsettled, and -count ends it with the tail delivered.
func TestWindowSourceBound(t *testing.T) {
	const window, count = 4, 41
	reg := obs.NewRegistry()
	settle := []*obs.Counter{reg.Counter("replay.responses"), reg.Counter("replay.timeouts"), reg.Counter("replay.send_errors")}
	settle[0].Add(1000) // an earlier run on the same registry is not this run's progress
	src := NewWindowSource(sourceWires, window, reg, time.Minute, count, 0)

	dst := make([]*trace.Event, 32)
	handed, out := 0, 0
	for turn := 0; ; turn++ {
		n, err := src.ReadBatch(dst)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil || n == 0 {
			t.Fatalf("turn %d: ReadBatch = %d, %v", turn, n, err)
		}
		handed, out = handed+n, out+n
		if turn == 0 && n != window {
			t.Fatalf("an empty window admitted %d, want all %d", n, window)
		}
		if out > window {
			t.Fatalf("turn %d: %d unsettled, window is %d", turn, out, window)
		}
		k := 1 + turn%out // settle some, at least one, through each counter in turn
		settle[turn%3].Add(uint64(k))
		out -= k
	}
	if handed != count {
		t.Fatalf("handed %d, want %d", handed, count)
	}
}

// TestWindowSourceStall: a full window nothing settles is written off
// after the stall period — not before — and -duration ends the source
// even while it waits.
func TestWindowSourceStall(t *testing.T) {
	const window, stall = 3, 40 * time.Millisecond
	src := NewWindowSource(sourceWires, window, obs.NewRegistry(), stall, 0, 3*stall)
	dst := make([]*trace.Event, 32)
	start := time.Now()
	for turn := 0; turn < 3; turn++ {
		if n, err := src.ReadBatch(dst); n != window || err != nil {
			t.Fatalf("turn %d: ReadBatch = %d, %v; want a whole window", turn, n, err)
		}
		if got, want := time.Since(start), time.Duration(turn)*stall; got < want {
			t.Fatalf("turn %d admitted after %v, stall is %v", turn, got, stall)
		}
	}
	// The next write-off falls due no earlier than the duration does.
	if n, err := src.ReadBatch(dst); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("ReadBatch = %d, %v; want EOF at the duration", n, err)
	}
	if took := time.Since(start); took < 3*stall || took > 25*stall {
		t.Fatalf("ended after %v, want about %v", took, 3*stall)
	}
}

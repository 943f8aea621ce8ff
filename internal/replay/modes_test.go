package replay

import (
	"context"
	"testing"
	"time"

	"ldplayer/internal/trace"
	"ldplayer/internal/workload"
)

// TestDistributorsMultiplyQueriers: a 2 × 2 engine runs four queriers
// fed straight by the controller and delivers the whole trace.
func TestDistributorsMultiplyQueriers(t *testing.T) {
	srv, ap, stop := testServer(t)
	defer stop()
	tr := workload.Synthetic(workload.SyntheticConfig{
		InterArrival: 2 * time.Millisecond,
		Duration:     400 * time.Millisecond,
		Clients:      10,
		Seed:         4,
	})
	eng, err := New(Config{
		Server:                 ap,
		Distributors:           2,
		QueriersPerDistributor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), &sliceReader{events: tr.Events})
	if err != nil {
		t.Fatal(err)
	}
	if int(rep.Sent) != len(tr.Events) {
		t.Fatalf("sent=%d want %d", rep.Sent, len(tr.Events))
	}
	if rep.Responses < rep.Sent*9/10 {
		t.Errorf("responses=%d of %d", rep.Responses, rep.Sent)
	}
	_ = srv
}

// TestNaiveTimingDrifts: with an artificially slow input stage, naive
// gap-sleeping accumulates the injected delay while compensation absorbs
// it — the DESIGN.md ablation in unit-test form.
func TestNaiveTimingDrifts(t *testing.T) {
	_, ap, stop := testServer(t)
	defer stop()
	mkTrace := func() *slowReader {
		tr := workload.Synthetic(workload.SyntheticConfig{
			InterArrival: 5 * time.Millisecond,
			Duration:     250 * time.Millisecond, // 50 queries
			Clients:      5,
			Seed:         6,
		})
		return &slowReader{events: tr.Events, delay: 2 * time.Millisecond}
	}
	lastErr := func(naive bool) time.Duration {
		eng, err := New(Config{Server: ap, QueriersPerDistributor: 1, NaiveTiming: naive})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(context.Background(), mkTrace())
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) == 0 {
			t.Fatal("no results")
		}
		last := rep.Results[len(rep.Results)-1]
		d := last.SentOffset - last.TraceOffset
		if d < 0 {
			d = -d
		}
		return d
	}
	comp := lastErr(false)
	naive := lastErr(true)
	// Naive timing adds ~2 ms of un-absorbed input delay per query: ~100
	// ms of drift by the last query. Compensation hides it entirely
	// (input is pre-loaded faster than the trace plays).
	if comp > 25*time.Millisecond {
		t.Errorf("compensated drift %v too large", comp)
	}
	if naive < 3*comp && naive < 30*time.Millisecond {
		t.Errorf("naive timing did not drift (naive=%v comp=%v)", naive, comp)
	}
}

// slowReader injects per-read latency, standing in for slow input
// parsing or a congested distribution link.
type slowReader struct {
	events []*trace.Event
	i      int
	delay  time.Duration
}

func (s *slowReader) Read() (*trace.Event, error) {
	if s.i >= len(s.events) {
		return nil, errEOF
	}
	time.Sleep(s.delay)
	e := s.events[s.i]
	s.i++
	return e, nil
}

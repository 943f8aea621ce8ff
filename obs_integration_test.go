package ldplayer

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/replay"
	"ldplayer/internal/server"
	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
	"ldplayer/internal/vnet"
	"ldplayer/internal/workload"
	"ldplayer/internal/zonegen"
)

type eventSlice struct {
	events []*trace.Event
	i      int
}

func (s *eventSlice) Read() (*trace.Event, error) {
	if s.i >= len(s.events) {
		return nil, io.EOF
	}
	e := s.events[s.i]
	s.i++
	return e, nil
}

// TestDebugEndpointLiveCounters is the observability acceptance check:
// while a replay runs against a vnet-served authoritative server, a
// GET /vars on the shared debug endpoint must show counters moving in
// the replay, server and dnsmsg (bridged by transport) namespaces — the
// whole pipeline reporting into one registry mid-run.
func TestDebugEndpointLiveCounters(t *testing.T) {
	// Everything registers in obs.Default, like the real binaries:
	// ldp-server and ldp-replay both pass the process-wide registry.
	reg := obs.Default

	srv, addr, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	varsURL := fmt.Sprintf("http://%s/vars", addr)

	// Authoritative server on the vnet fabric.
	n := vnet.New()
	srvHost := transport.NewVNetHost(n, netip.MustParseAddr("10.9.0.1"))
	defer srvHost.Close()
	cliHost := transport.NewVNetHost(n, netip.MustParseAddr("10.9.0.2"))
	defer cliHost.Close()

	s := server.New(server.Config{Obs: reg})
	if err := s.AddZone(zonegen.WildcardZone("example.com.")); err != nil {
		t.Fatal(err)
	}
	vpc, err := srvHost.ListenPacket(53)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.ServeUDP(ctx, vpc)

	// A paced trace long enough that /vars can be scraped mid-run.
	tr := workload.Synthetic(workload.SyntheticConfig{
		InterArrival: 5 * time.Millisecond,
		Duration:     2 * time.Second,
		Clients:      8,
		Seed:         7,
	})
	eng, err := replay.New(replay.Config{
		Server: netip.AddrPortFrom(srvHost.Addr(), 53),
		Obs:    reg,
		Dialer: cliHost,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The replay's series on each side of the wire: its UDP sender's
	// sends and matched answers, the server's queries, and the message
	// pool the server decodes and answers through.
	want := []string{"replay.sent", "replay.responses", "server.queries", "dnsmsg.msgpool.gets"}
	base := scrapeVars(t, varsURL)

	done := make(chan error, 1)
	var rep *replay.Report
	go func() {
		var runErr error
		rep, runErr = eng.Run(ctx, &eventSlice{events: tr.Events})
		done <- runErr
	}()

	// Scrape until every namespace shows life (or the run ends first —
	// then one final scrape must still satisfy the check, because
	// counters never reset).
	deadline := time.Now().Add(10 * time.Second)
	var snap obs.Snapshot
	for {
		snap = scrapeVars(t, varsURL)
		if countersMoved(base, snap, want) == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("debug endpoint never showed live counters: %v", countersMoved(base, snap, want))
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			done <- nil // keep the final wait below working
		case <-time.After(20 * time.Millisecond):
		}
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Sent == 0 {
		t.Fatalf("replay report empty: %+v", rep)
	}

	// The final scrape agrees with the run: at least Sent queries went
	// through the replay counter (shared registry, so >=).
	final := scrapeVars(t, varsURL)
	if final.Counters["replay.sent"] < rep.Sent {
		t.Errorf("replay.sent=%d < report Sent=%d", final.Counters["replay.sent"], rep.Sent)
	}
	if _, ok := final.Histograms["replay.rtt_seconds"]; !ok {
		t.Error("replay.rtt_seconds histogram missing from /vars")
	}
}

func scrapeVars(t *testing.T, url string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /vars: %v", err)
	}
	return snap
}

// countersMoved reports the first of names that did not grow from base
// to s: the shared registry carries earlier tests' counts.
func countersMoved(base, s obs.Snapshot, names []string) error {
	for _, name := range names {
		if s.Counters[name] <= base.Counters[name] {
			return errors.New(name + " has not moved")
		}
	}
	return nil
}

// Quickstart: the smallest complete LDplayer loop — start an
// authoritative server on loopback, generate a one-second synthetic
// trace, replay it with original timing, and report the accuracy.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/netip"
	"time"

	"ldplayer"

	"ldplayer/internal/transport"
	"ldplayer/internal/workload"
	"ldplayer/internal/zonegen"
)

func main() {
	log.SetFlags(0)

	// 1. An authoritative server with a wildcard zone, so every unique
	//    query name in the synthetic trace gets an answer.
	srv := ldplayer.NewServer(ldplayer.ServerConfig{})
	if err := srv.AddZone(zonegen.WildcardZone("example.com.")); err != nil {
		log.Fatal(err)
	}
	pc, target, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.ServeUDP(ctx, pc)
	fmt.Printf("server on %s\n", target)

	// 2. A synthetic trace: 100 queries at a fixed 10 ms inter-arrival,
	//    each with a unique name (how the paper matches queries later).
	tr := workload.Synthetic(workload.SyntheticConfig{
		InterArrival: 10 * time.Millisecond,
		Duration:     time.Second,
		Clients:      10,
		Seed:         1,
	})
	fmt.Printf("trace: %d queries over %v\n", len(tr.Events), time.Second)

	// 3. Replay with the original timing through the controller →
	//    querier pipeline.
	rep, err := ldplayer.Replay(ctx, ldplayer.ReplayConfig{
		Server:                 netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), target.Port()),
		QueriersPerDistributor: 2,
	}, readerOf(tr))
	if err != nil {
		log.Fatal(err)
	}

	// 4. Report: counts and timing accuracy.
	fmt.Printf("sent %d, responses %d, errors %d\n", rep.Sent, rep.Responses, rep.SendErrs)
	var worst time.Duration
	for _, r := range rep.Results {
		d := r.SentOffset - r.TraceOffset
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	fmt.Printf("worst send-time error: %v\n", worst)
	st := srv.Stats()
	fmt.Printf("server saw %d UDP queries, answered %d\n", st.UDPQueries, st.Responses)
}

// readerOf adapts an in-memory trace to the streaming interface.
func readerOf(tr *ldplayer.Trace) ldplayer.TraceReader {
	return &sliceReader{events: tr.Events}
}

type sliceReader struct {
	events []*ldplayer.Event
	i      int
}

func (s *sliceReader) Read() (*ldplayer.Event, error) {
	if s.i >= len(s.events) {
		return nil, errEOF
	}
	e := s.events[s.i]
	s.i++
	return e, nil
}

var errEOF = io.EOF

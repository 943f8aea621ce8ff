// TCP/TLS what-if: the paper's §5.2 scenario live — take a trace whose
// queries are mostly UDP, mutate it so every query uses TCP (then TLS),
// replay against a real server over loopback, and watch connection reuse
// and server connection state.
//
//	go run ./examples/tcptls
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/netip"
	"time"

	"ldplayer"

	"ldplayer/internal/server"
	"ldplayer/internal/transport"
	"ldplayer/internal/workload"
	"ldplayer/internal/zonegen"
)

func main() {
	log.SetFlags(0)

	// Server with a 3-second idle timeout so reuse and idle-close both
	// show up within the demo.
	srv := ldplayer.NewServer(ldplayer.ServerConfig{TCPIdleTimeout: 3 * time.Second})
	if err := srv.AddZone(zonegen.RootZone(nil)); err != nil {
		log.Fatal(err)
	}
	pcUDP, lnTCP, target, err := transport.ListenUDPTCP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	tlsSrvCfg, tlsCliCfg, err := server.SelfSignedTLS("127.0.0.1")
	if err != nil {
		log.Fatal(err)
	}
	lnTLS, tlsAP, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.ServeUDP(ctx, pcUDP)
	go srv.ServeTCP(ctx, lnTCP)
	go srv.ServeTLS(ctx, lnTLS, tlsSrvCfg)
	targetAP := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), target.Port())

	// A 6-second trace from 30 sources.
	tr := workload.BRootModel(workload.BRootConfig{
		Duration:   6 * time.Second,
		MedianRate: 120,
		Clients:    30,
		Seed:       9,
	})
	fmt.Printf("trace: %d queries from 30 sources over 6 s\n\n", len(tr.Events))

	for _, scenario := range []struct {
		name  string
		proto ldplayer.Proto
		tls   bool
	}{
		{"all queries over TCP", ldplayer.TCP, false},
		{"all queries over TLS", ldplayer.TLS, true},
	} {
		mutated, err := ldplayer.MutateTrace(tr, ldplayer.ForceProtocol(scenario.proto))
		if err != nil {
			log.Fatal(err)
		}
		cfg := ldplayer.ReplayConfig{
			Server:                 targetAP,
			TLSServer:              netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), tlsAP.Port()),
			QueriersPerDistributor: 2,
			ConnIdleTimeout:        3 * time.Second,
		}
		if scenario.tls {
			cfg.TLSConfig = tlsCliCfg
		}
		rep, err := ldplayer.Replay(ctx, cfg, readerOf(mutated))
		if err != nil {
			log.Fatal(err)
		}
		fresh := 0
		for _, r := range rep.Results {
			if r.FreshConn {
				fresh++
			}
		}
		fmt.Printf("%s:\n", scenario.name)
		fmt.Printf("  sent %d, responses %d\n", rep.Sent, rep.Responses)
		fmt.Printf("  connections opened: %d (reuse saved %d handshakes)\n",
			rep.ConnsOpened, int(rep.Sent)-fresh)
		st := srv.Stats()
		fmt.Printf("  server totals: tcp-conns=%d tls-conns=%d\n\n", st.TCPConnsTotal, st.TLSConnsTotal)
	}
	fmt.Println("(the paper: with reuse, median TCP latency stays near UDP; " +
		"fresh connections pay 2 RTTs for TCP and 4 for TLS)")
}

func readerOf(tr *ldplayer.Trace) ldplayer.TraceReader {
	return &sliceReader{events: tr.Events}
}

type sliceReader struct {
	events []*ldplayer.Event
	i      int
}

func (s *sliceReader) Read() (*ldplayer.Event, error) {
	if s.i >= len(s.events) {
		return nil, io.EOF
	}
	e := s.events[s.i]
	s.i++
	return e, nil
}

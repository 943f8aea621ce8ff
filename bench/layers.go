package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/netip"
	"os"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/hierarchy"
	"ldplayer/internal/mutate"
	"ldplayer/internal/replay"
	"ldplayer/internal/server"
	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
	"ldplayer/internal/zone"
)

// Direct layer measurements: the benchmark calls each layer's public
// function over the workload's own inputs, in trace order, and divides
// the time by the calls. Each is bounded by directEvents inputs so the
// whole set costs a few seconds. A layer the workload does not use is
// left at 0.

// directSizes bounds each direct measurement.
type directSizes struct {
	events int // trace events fed to a layer
	fabric int // queries replayed over the echo fabric
	stubs  int // stub queries resolved through the second hierarchy
	rounds int // 32-datagram batches through the loopback socket pair
}

func sizesFor(sc scale) directSizes {
	if sc.quick {
		return directSizes{events: 4000, fabric: 8000, stubs: 300, rounds: 100}
	}
	return directSizes{events: 50000, fabric: 200000, stubs: 3000, rounds: 2000}
}

var loopbackSrc = netip.MustParseAddr("127.0.0.1")

// sliceReader replays in-memory events, optionally around and around.
type sliceReader struct {
	events []*trace.Event
	next   int
	left   int // events still to deliver
}

func (s *sliceReader) Read() (*trace.Event, error) { return readOne(s) }

func (s *sliceReader) ReadBatch(dst []*trace.Event) (int, error) {
	if s.left == 0 {
		return 0, io.EOF
	}
	n := min(len(dst), s.left)
	for i := 0; i < n; i++ {
		dst[i] = s.events[s.next]
		s.next = (s.next + 1) % len(s.events)
	}
	s.left -= n
	return n, nil
}

// readBatches reads r to the end in engine-sized batches.
func readBatches(r trace.BatchReader) ([]*trace.Event, error) {
	buf := make([]*trace.Event, 32)
	var all []*trace.Event
	for {
		n, err := r.ReadBatch(buf)
		all = append(all, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return all, nil
		}
		if err != nil {
			return all, err
		}
	}
}

func perCall(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

func directLayers(r *rig, sc scale, L map[string]float64) error {
	w, sz := r.w, sizesFor(sc)
	if r.zoneParse > 0 {
		L["zone.parse_recs_per_s"] = float64(r.zoneRecords) / r.zoneParse.Seconds()
	}

	// The workload's inputs, in trace order.
	events := r.events
	if !w.fast {
		raw, err := os.ReadFile(r.traceFile)
		if err != nil {
			return err
		}
		t0 := time.Now()
		all, err := readBatches(trace.NewBinaryReader(bytes.NewReader(raw)))
		if err != nil {
			return err
		}
		L["trace.decode_ns_per_event"] = perCall(time.Since(t0), len(all))
		events = all[:min(len(all), sz.events)]

		chain := mutate.Chain{mutate.QueriesOnly(), mutate.ForceProtocol(w.proto)}
		t0 = time.Now()
		mutated, err := readBatches(mutate.NewReader(&sliceReader{events: events, left: len(events)}, chain))
		if err != nil {
			return err
		}
		L["mutate.apply_ns_per_event"] = perCall(time.Since(t0), len(mutated))
	}

	if err := directReplay(events, sc.procs, sz.fabric, L); err != nil {
		return err
	}
	if err := directTransport(events, sz, L); err != nil {
		return err
	}

	// Decode the queries once; the server, zone and codec measurements
	// share them.
	queries := make([]*dnsmsg.Msg, 0, len(events))
	for _, ev := range events {
		q := new(dnsmsg.Msg)
		if err := q.Unpack(ev.Wire); err != nil {
			return err
		}
		queries = append(queries, q)
	}
	maxSize := dnsmsg.MaxUDPSize
	if w.proto != trace.UDP {
		maxSize = 0
	}
	if w.rec {
		if err := directHierarchy(r, queries[:min(len(queries), sz.stubs)], L); err != nil {
			return err
		}
	} else {
		// A fresh server over the same zones, so the answer cache warms
		// in trace order as the live one did.
		srv := server.New(server.Config{})
		for _, z := range r.zones {
			if err := srv.AddZone(z); err != nil {
				return err
			}
		}
		var out []byte
		t0 := time.Now()
		for _, q := range queries {
			var err error
			if out, err = srv.HandleQueryWire(loopbackSrc, q, maxSize, out[:0]); err != nil {
				return err
			}
		}
		L["server.handle_ns_per_query"] = perCall(time.Since(t0), len(queries))
	}

	zs := server.NewZoneSet()
	for _, z := range r.zones {
		if err := zs.Add(z); err != nil {
			return err
		}
	}
	var ans zone.Answer
	t0 := time.Now()
	for _, q := range queries {
		if z, ok := zs.Find(q.Question[0].Name); ok {
			_, do, _ := q.EDNS()
			z.QueryInto(&ans, q.Question[0].Name, q.Question[0].Type, do)
		}
	}
	L["zone.lookup_ns_per_query"] = perCall(time.Since(t0), len(queries))

	// Codec: the queries and the answers the oracle gives them.
	wires := make([][]byte, 0, 2*len(events))
	msgs := make([]*dnsmsg.Msg, 0, 2*len(events))
	for i, q := range queries {
		resp := r.oracle.HandleQuery(loopbackSrc, q, 0)
		rw, err := resp.Pack()
		if err != nil {
			return err
		}
		wires = append(wires, events[i].Wire, rw)
		msgs = append(msgs, q, resp)
	}
	var m dnsmsg.Msg
	t0 = time.Now()
	for _, wire := range wires {
		if err := m.UnpackBuffer(wire); err != nil {
			return err
		}
	}
	L["dnsmsg.unpack_ns_per_msg"] = perCall(time.Since(t0), len(wires))
	var buf []byte
	t0 = time.Now()
	for _, msg := range msgs {
		var err error
		if buf, err = msg.AppendPack(buf[:0]); err != nil {
			return err
		}
	}
	L["dnsmsg.pack_ns_per_msg"] = perCall(time.Since(t0), len(msgs))
	return nil
}

// directReplay runs the replay engine over the echo fabric: fast mode
// for the syscall-free ceiling, and timed mode on a schedule that is
// always behind (every query due at once), which leaves only the timed
// path's own per-query cost.
func directReplay(events []*trace.Event, procs, n int, L map[string]float64) error {
	run := func(mode replay.Mode, n int, evs []*trace.Event) (time.Duration, error) {
		eng, err := replay.New(replay.Config{
			Server: echoAddr, Distributors: 1, QueriersPerDistributor: procs,
			Mode: mode, DropResults: true, Dialer: echoFabric{},
		})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		rep, err := eng.Run(context.Background(), &sliceReader{events: evs, left: n})
		if err != nil {
			return 0, err
		}
		if rep.Responses != uint64(n) {
			return 0, errors.New("echo fabric lost queries")
		}
		return time.Since(t0), nil
	}
	d, err := run(replay.FastAsPossible, n, events)
	if err != nil {
		return err
	}
	L["replay.fabric_ns_per_query"] = perCall(d, n)

	due := make([]*trace.Event, len(events))
	for i, ev := range events {
		c := *ev
		c.Time = events[0].Time
		due[i] = &c
	}
	if d, err = run(replay.Timed, n/2, due); err != nil {
		return err
	}
	L["replay.timed_overhead_ns_per_query"] = perCall(d, n/2)
	return nil
}

// directTransport times the batch syscalls on a loopback socket pair,
// and transport.Conn's send-and-match over the echo fabric, where the
// only difference between the datagram and the stream flavour is the
// idle timer a stream re-arms on every send.
func directTransport(events []*trace.Event, sz directSizes, L map[string]float64) error {
	rx, addr, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer rx.Close()
	tx, err := transport.ListenUDPUnconnected(addr)
	if err != nil {
		return err
	}
	defer tx.Close()
	wb, rb := transport.NewUDPBatch(tx), transport.NewUDPBatch(rx)
	out, in := transport.GetBatch(), transport.GetBatch()
	defer transport.PutBatch(out)
	defer transport.PutBatch(in)
	for i := range *out {
		(*out)[i].Buf = append((*out)[i].Buf[:0], events[i%len(events)].Wire...)
		(*out)[i].Addr = addr
	}
	var wrote, read time.Duration
	var dgrams int
	if err := rx.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	for i := 0; i < sz.rounds; i++ {
		t0 := time.Now()
		n, err := wb.WriteBatch(*out)
		if err != nil {
			return err
		}
		t1 := time.Now()
		wrote += t1.Sub(t0)
		for got := 0; got < n; {
			k, err := rb.ReadBatch(*in)
			if err != nil {
				return err
			}
			got += k
		}
		read += time.Since(t1)
		dgrams += n
	}
	L["transport.udp_sendmmsg_ns_per_dgram"] = perCall(wrote, dgrams)
	L["transport.udp_recvmmsg_ns_per_dgram"] = perCall(read, dgrams)

	conn := func(idle time.Duration) (float64, error) {
		const burst = 64
		done := make(chan struct{}, 1)
		left := 0
		c := transport.NewConn(transport.ConnConfig{
			Dial: func() (transport.Endpoint, error) {
				return echoFabric{}.Dial(context.Background(), transport.UDP, echoAddr)
			},
			IdleTimeout: idle,
			// Runs on the Conn's read loop, one response at a time; the
			// sender is parked on done while a burst is out.
			OnResponse: func(any, time.Duration, []byte) {
				if left--; left == 0 {
					done <- struct{}{}
				}
			},
		})
		defer c.Close()
		t0 := time.Now()
		sent := 0
		for sent < sz.events {
			left = burst
			for i := 0; i < burst; i++ {
				if _, err := c.Send(events[(sent+i)%len(events)].Wire, nil); err != nil {
					return 0, err
				}
			}
			<-done
			sent += burst
		}
		return perCall(time.Since(t0), sent), nil
	}
	if L["transport.conn_send_udp_ns"], err = conn(0); err != nil {
		return err
	}
	L["transport.conn_send_tcp_ns"], err = conn(20 * time.Second)
	return err
}

// directHierarchy measures the recursive workload's own layers on a
// second emulation over the same zones: full resolutions in trace order
// from a cold cache, and the meta-server's handling of one upstream
// query, addressed as the proxies address it (from each zone's
// nameserver address, which is what selects among the views).
func directHierarchy(r *rig, stubs []*dnsmsg.Msg, L map[string]float64) error {
	em, err := hierarchy.New(r.hier, hierarchy.DefaultConfig())
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, q := range stubs {
		// A resolution that fails is still the resolver's work; the
		// replayed pass's oracle is what checks answers.
		_, _ = em.Resolve(context.Background(), q.Question[0].Name, q.Question[0].Type)
	}
	L["resolver.resolve_us_per_query"] = perCall(time.Since(t0), len(stubs)) / 1e3

	var wire []byte
	var handle, handleWire time.Duration
	calls := 0
	for _, q := range stubs {
		name := q.Question[0].Name
		for _, origin := range []dnsmsg.Name{dnsmsg.Root, name.Parent().Parent(), name.Parent()} {
			src, ok := r.hier.NSAddr[origin]
			if !ok {
				continue
			}
			t0 := time.Now()
			em.Meta.HandleQuery(src, q, 0)
			t1 := time.Now()
			if wire, err = em.Meta.HandleQueryWire(src, q, 0, wire[:0]); err != nil {
				return err
			}
			handle += t1.Sub(t0)
			handleWire += time.Since(t1)
			calls++
		}
	}
	L["hierarchy.meta_handle_us_per_upstream"] = perCall(handle, calls) / 1e3
	L["server.handle_ns_per_query"] = perCall(handleWire, calls)
	return nil
}

package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/hierarchy"
	"ldplayer/internal/replay"
	"ldplayer/internal/trace"
	"ldplayer/internal/workload"
	"ldplayer/internal/zonegen"
)

// Ablations quantifies the design decisions DESIGN.md calls out:
// proxies + split horizon vs a naive single server, timing compensation
// vs naive sleeps, binary vs text input, and same-source affinity vs
// random assignment.
func Ablations(sc Scale) (*Result, error) {
	r := &Result{ID: "ablation", Title: "Design-choice ablations"}
	if err := ablateHierarchy(r); err != nil {
		return nil, err
	}
	if err := ablateInputFormats(r, sc); err != nil {
		return nil, err
	}
	if err := ablateAffinity(r, sc); err != nil {
		return nil, err
	}
	if err := ablateTimingCompensation(r, sc); err != nil {
		return nil, err
	}
	return r, nil
}

// ablateTimingCompensation compares the paper's accumulated-delay
// compensation against naive gap sleeping, which drifts by the summed
// pipeline overheads.
func ablateTimingCompensation(r *Result, sc Scale) error {
	ls, err := startLiveServer()
	if err != nil {
		return err
	}
	defer ls.stop()
	tr := workload.Synthetic(workload.SyntheticConfig{
		InterArrival: 2 * time.Millisecond,
		Duration:     sc.LiveDuration,
		Clients:      50,
		Seed:         42,
	})
	lastError := func(naive bool) (time.Duration, error) {
		eng, err := replay.New(replay.Config{
			Server:                 ls.addr,
			QueriersPerDistributor: 2,
			NaiveTiming:            naive,
		})
		if err != nil {
			return 0, err
		}
		rep, err := eng.Run(context.Background(), &sliceReader{events: tr.Events})
		if err != nil {
			return 0, err
		}
		if len(rep.Results) == 0 {
			return 0, fmt.Errorf("no results")
		}
		last := rep.Results[len(rep.Results)-1]
		d := last.SentOffset - last.TraceOffset
		if d < 0 {
			d = -d
		}
		return d, nil
	}
	comp, err := lastError(false)
	if err != nil {
		return err
	}
	naive, err := lastError(true)
	if err != nil {
		return err
	}
	r.addRow("timing: final-query error with compensation %v, naive sleeps %v", comp, naive)
	r.addCheck("delay compensation beats naive sleeping at the end of the trace",
		"continuous adjustment keeps absolute timing (§2.6)",
		fmt.Sprintf("%v vs %v drift", comp, naive), comp < naive)
	return nil
}

// ablateHierarchy compares the proxy emulation with the naive
// all-zones-one-view server the paper rejects (§2.4).
func ablateHierarchy(r *Result) error {
	h, err := zonegen.Generate(zonegen.Config{
		TLDs: []string{"com", "org"}, SLDsPerTLD: 2, HostsPerSLD: 2, Seed: 40,
	})
	if err != nil {
		return err
	}
	countHops := func(em *hierarchy.Emulation, taps *int) error {
		em.Resolver.Cache().Flush()
		_, err := em.Resolve(context.Background(),
			dnsmsg.MustParseName("www."+string(h.SLDs[0])), dnsmsg.TypeA)
		return err
	}
	var hopsProxy, hopsDirect int
	cfg := hierarchy.DefaultConfig()
	cfg.Tap = func(netip.AddrPort, *dnsmsg.Msg, *dnsmsg.Msg) { hopsProxy++ }
	emProxy, err := hierarchy.New(h, cfg)
	if err != nil {
		return err
	}
	if err := countHops(emProxy, &hopsProxy); err != nil {
		return err
	}
	cfg2 := hierarchy.DefaultConfig()
	cfg2.Tap = func(netip.AddrPort, *dnsmsg.Msg, *dnsmsg.Msg) { hopsDirect++ }
	emDirect, err := hierarchy.NewDirect(h, cfg2)
	if err != nil {
		return err
	}
	if err := countHops(emDirect, &hopsDirect); err != nil {
		return err
	}
	r.addRow("hierarchy emulation: proxy+split-horizon walk = %d round trips; naive single server = %d", hopsProxy, hopsDirect)
	r.addCheck("naive single server short-circuits the hierarchy (the problem §2.4 solves)",
		"1 round trip instead of 3", fmt.Sprintf("%d vs %d", hopsDirect, hopsProxy),
		hopsDirect == 1 && hopsProxy == 3)
	return nil
}

// ablateInputFormats times reading the same trace from the internal
// binary stream vs the text form — the Fig 3 rationale for pre-converted
// binary input.
func ablateInputFormats(r *Result, sc Scale) error {
	tr := workload.Synthetic(workload.SyntheticConfig{
		InterArrival: time.Millisecond,
		Duration:     10 * time.Second,
		Clients:      100,
		Seed:         41,
	})
	var binBuf, txtBuf bytes.Buffer
	bw := trace.NewBinaryWriter(&binBuf)
	if err := trace.WriteAll(bw, tr); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	tw := trace.NewTextWriter(&txtBuf)
	if err := trace.WriteAll(tw, tr); err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	timeRead := func(r trace.Reader) (time.Duration, int, error) {
		start := time.Now() //ldp:nolint simclock — wall-clock measurement of parse throughput
		n := 0
		for {
			_, err := r.Read()
			if err != nil {
				if err == errEOF {
					return time.Since(start), n, nil
				}
				return 0, 0, err
			}
			n++
		}
	}
	binTime, n1, err := timeRead(trace.NewBinaryReader(bytes.NewReader(binBuf.Bytes())))
	if err != nil {
		return err
	}
	txtTime, n2, err := timeRead(trace.NewTextReader(bytes.NewReader(txtBuf.Bytes())))
	if err != nil {
		return err
	}
	r.addRow("input formats over %d events: binary %v, text %v (%.1fx)",
		n1, binTime, txtTime, float64(txtTime)/float64(binTime))
	r.addCheck("binary input faster than parsing text on the hot path",
		"binary exists for fast processing (§2.5)",
		fmt.Sprintf("%.1fx speedup", float64(txtTime)/float64(binTime)),
		n1 == n2 && binTime < txtTime)
	return nil
}

// ablateAffinity compares connection counts with and without same-source
// affinity by replaying an all-TCP trace against a live server.
func ablateAffinity(r *Result, sc Scale) error {
	ls, err := startLiveServer()
	if err != nil {
		return err
	}
	defer ls.stop()

	// 200 TCP queries from 10 sources.
	var events []*trace.Event
	base := traceBase
	var m dnsmsg.Msg
	m.SetQuestion("www.example.com.", dnsmsg.TypeA)
	wire, err := m.Pack()
	if err != nil {
		return err
	}
	for i := 0; i < 200; i++ {
		events = append(events, &trace.Event{
			Time:  base.Add(time.Duration(i) * time.Millisecond),
			Src:   netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 7, 0, byte(i % 10)}), 5000),
			Dst:   workload.ServerAddr,
			Proto: trace.TCP,
			Wire:  wire,
		})
	}
	eng, err := replay.New(replay.Config{
		Server:                 ls.addr,
		Mode:                   replay.FastAsPossible,
		Distributors:           2,
		QueriersPerDistributor: 4,
	})
	if err != nil {
		return err
	}
	rep, err := eng.Run(context.Background(), &sliceReader{events: events})
	if err != nil {
		return err
	}
	// With affinity: exactly one connection per source. Without it, each
	// of the 8 queriers would open its own connection per source (up to
	// 80). The engine always uses affinity; the check documents the
	// invariant the design exists to preserve.
	r.addRow("same-source affinity: %d sources -> %d TCP connections across 8 queriers",
		10, rep.ConnsOpened)
	r.addCheck("one connection per source with affinity routing",
		"connection reuse requires same-source->same-querier (§2.6)",
		fmt.Sprintf("%d connections for 10 sources", rep.ConnsOpened),
		rep.ConnsOpened == 10)
	return nil
}

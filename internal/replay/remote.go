package replay

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"

	"ldplayer/internal/trace"
)

// Cross-host distribution (paper Fig 4): the controller's Postman streams
// the query stream to distributor machines over TCP, chosen for reliable
// message exchange. Each client machine is one of the paper's
// distributors: an Engine fed by the connection, whose controller
// hands the stream straight to its local queriers. Timing
// synchronization follows the paper: the stream announces the trace
// start, and each querier stamps its own local receipt time as t₁, so
// clocks never need to agree across machines.

var controllerMagic = []byte("LDPC1\n")

// ServeController accepts exactly n distributor connections on ln, then
// streams the input to them with same-source affinity. It returns when
// the input is exhausted and all streams are flushed.
func ServeController(ctx context.Context, ln net.Listener, input trace.Reader, n int) error {
	if n <= 0 {
		return errors.New("replay: controller needs at least one distributor")
	}
	conns := make([]net.Conn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close() //ldp:nolint errcheck — teardown of control-plane conns; nothing to report to
		}
	}()
	for len(conns) < n {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if _, err := conn.Write(controllerMagic); err != nil {
			conn.Close() //ldp:nolint errcheck — already failing the handshake; the write error is the one reported
			return err
		}
		conns = append(conns, conn)
	}

	writers := make([]*trace.BinaryWriter, n)
	for i, c := range conns {
		writers[i] = trace.NewBinaryWriter(c)
	}
	router := newSticky(n)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		ev, err := input.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		if !ev.IsQuery() {
			continue
		}
		lane := router.pick(ev.Src.Addr())
		if err := writers[lane].Write(ev); err != nil {
			return fmt.Errorf("replay: stream to distributor %d: %w", lane, err)
		}
	}
	for _, w := range writers {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// RunRemoteClient connects to a controller and replays the received
// stream with a local engine: this machine's distributor, feeding its
// queriers.
func RunRemoteClient(ctx context.Context, controllerAddr string, cfg Config) (*Report, error) {
	// Control-plane stream from the controller: it carries trace events,
	// not DNS traffic.
	conn, err := net.Dial("tcp", controllerAddr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	magic := make([]byte, len(controllerMagic))
	if _, err := io.ReadFull(conn, magic); err != nil {
		return nil, fmt.Errorf("replay: controller handshake: %w", err)
	}
	if string(magic) != string(controllerMagic) {
		return nil, fmt.Errorf("replay: bad controller magic %q", magic)
	}
	eng, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return eng.Run(ctx, trace.NewBinaryReader(conn))
}

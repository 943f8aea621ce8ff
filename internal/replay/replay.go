// Package replay implements LDplayer's distributed query replay system
// (paper §2.6 and §3): a Controller whose Reader pre-loads the query
// stream and whose Postman hands it straight to Queriers that emulate
// query sources over UDP, TCP and TLS sockets with connection reuse.
// Within one process the controller feeds its queriers directly; the
// paper's distributors, which exist to reach more queriers than one host
// holds, are the remote clients of remote.go, each running an Engine of
// its own. Queries are scheduled against the original trace timeline by
// continuously compensating accumulated pipeline delay
// (ΔTᵢ = Δt̄ᵢ − Δtᵢ); fast mode drops timing for load tests. Same-source
// queries stick to the same querier, in trace order: a stream source
// keeps its own connection, the dependency the paper preserves because
// it drives DNS-over-TCP connection reuse, while UDP queries of every
// source on a querier share its one socket.
package replay

import (
	"crypto/tls"
	"net/netip"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
)

// Mode selects replay pacing.
type Mode int

// Pacing modes.
const (
	// Timed replays queries at their trace times (the default).
	Timed Mode = iota
	// FastAsPossible ignores timing and sends as fast as the pipeline
	// moves — the paper's load-test option and §4.3 throughput setup.
	FastAsPossible
)

// Config parameterizes an Engine.
type Config struct {
	// Server is the target for UDP and TCP queries.
	Server netip.AddrPort
	// TLSServer is the target for TLS queries (defaults to Server).
	TLSServer netip.AddrPort
	// TLSConfig enables DNS-over-TLS queriers.
	TLSConfig *tls.Config

	// Distributors and QueriersPerDistributor size the querier pool
	// (defaults 1 and 4). In one process the two only multiply: the
	// engine runs Distributors×QueriersPerDistributor queriers, all fed
	// by the controller. The paper's distributor processes are the
	// remote clients of remote.go.
	Distributors           int
	QueriersPerDistributor int

	Mode Mode

	// ConnIdleTimeout closes idle TCP/TLS connections at the querier; the
	// paper's queriers "may close them after a pre-set timeout".
	ConnIdleTimeout time.Duration
	// ResponseTimeout bounds how long the engine waits for outstanding
	// responses after the last query is sent.
	ResponseTimeout time.Duration
	// ChannelDepth sizes each querier's inbound buffer (the Reader's
	// pre-load window): ChannelDepth/BatchSize batches, so at most
	// ChannelDepth queries.
	ChannelDepth int
	// BatchSize is how many queries ride one controller→querier hand-off
	// (default 32). The controller accumulates a batch per querier and
	// forwards it when full, or partial when the input runs short or
	// the querier has nothing queued, amortizing channel operations up
	// to BatchSize× while preserving same-source ordering: a source's
	// queries stay in trace order inside a batch and across batches to
	// the same querier.
	BatchSize int
	// DropResults disables per-query result recording (throughput runs
	// replaying tens of millions of queries don't want the memory).
	DropResults bool

	// NaiveTiming disables the paper's accumulated-delay compensation
	// (ΔTᵢ = Δt̄ᵢ − Δtᵢ) and sleeps raw inter-arrival gaps instead. Only
	// for the ablation bench: pipeline delay then accumulates as drift.
	NaiveTiming bool

	// Obs is the registry the engine's live instruments ("replay."
	// namespace) register in. Pass obs.Default to watch the run from a
	// process-wide debug endpoint (ldp-replay does); nil keeps a private
	// registry so concurrent engines account independently. The Report
	// is always per-run either way.
	Obs *obs.Registry
	// Dialer overrides how queriers open sockets — e.g. a
	// transport.VNetHost replays onto the in-process vnet fabric: each
	// querier's UDP socket comes from ListenPacketConn, each stream
	// source's connection from Dial. Nil opens real sockets.
	Dialer transport.PacketDialer
}

func (c Config) withDefaults() Config {
	if c.Distributors <= 0 {
		c.Distributors = 1
	}
	if c.QueriersPerDistributor <= 0 {
		c.QueriersPerDistributor = 4
	}
	if c.ConnIdleTimeout <= 0 {
		c.ConnIdleTimeout = 20 * time.Second
	}
	if c.ResponseTimeout <= 0 {
		c.ResponseTimeout = 2 * time.Second
	}
	if c.ChannelDepth <= 0 {
		c.ChannelDepth = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if !c.TLSServer.IsValid() {
		c.TLSServer = c.Server
	}
	return c
}

// QueryResult records one replayed query for the accuracy evaluation.
type QueryResult struct {
	// TraceOffset is when the trace wanted the query sent (relative to
	// the first query).
	TraceOffset time.Duration
	// SentOffset is when the querier actually sent it.
	SentOffset time.Duration
	// RTT is the query-to-response latency, or -1 if no response arrived.
	RTT time.Duration
	// Src is the original trace source address the querier emulated.
	Src netip.Addr
	// Proto is the transport used (beside FreshConn: packs into 56 bytes).
	Proto trace.Proto
	// FreshConn marks stream queries that had to open a new connection
	// (false = connection reuse hit).
	FreshConn bool
}

// Report summarizes one replay run.
type Report struct {
	// Results records the replayed queries (none with DropResults),
	// sorted by TraceOffset. Queries with equal offsets keep their send
	// order within a source, so each source's results read in the order
	// it sent them.
	Results   []QueryResult
	Sent      uint64
	Responses uint64
	SendErrs  uint64
	Timeouts  uint64
	// ConnsOpened counts TCP/TLS connections the queriers created.
	ConnsOpened uint64
	// IDExhausted counts stream sends refused because a connection had
	// all 65536 DNS query IDs in flight (the trace outran the server by
	// a full ID space on one source); UDP never refuses (see udpSender).
	IDExhausted uint64
	// IDWrapped counts UDP queries written off early, as Timeouts,
	// because their querier sent 65536 more queries while they were
	// still unanswered and the ID came round again.
	IDWrapped uint64
	// Duration is wall-clock time from first to last send.
	Duration time.Duration
	// BytesSent counts query payload bytes.
	BytesSent uint64
}

// item is one unit of work flowing controller -> querier.
type item struct {
	ev     *trace.Event
	offset time.Duration // trace time relative to trace start
}

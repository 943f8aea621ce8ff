package replay

import (
	"sync/atomic"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/obs"
)

// stats is the engine's live accounting: one set of obs instruments
// ("replay." namespace) shared by every querier, updated at send and
// response time so a debug endpoint watches the replay progress while it
// runs. The end-of-run Report is a view over these instruments.
type stats struct {
	reg *obs.Registry

	sent        *obs.Counter
	responses   *obs.Counter
	sendErrs    *obs.Counter
	timeouts    *obs.Counter
	connsOpened *obs.Counter
	idExhausted *obs.Counter
	// idWrapped counts UDP queries written off as timeouts because the
	// querier's ID space came round to them while they were live.
	idWrapped *obs.Counter
	bytesSent *obs.Counter
	// badResponses counts matched responses whose wire form failed to
	// decode — a server answering garbage shows up here, not as silence.
	badResponses *obs.Counter

	// rcodes breaks responses down by rcode (decoded in the connection
	// read loops through the pooled codec). Same lazy-counter idiom as
	// the server's: one atomic load + add per response once a series
	// exists.
	rcodes [16]atomic.Pointer[obs.Counter]

	// rtt is the query→response latency distribution, live — the series
	// behind the paper's Fig 11/15 percentile plots.
	rtt *obs.Histogram
	// sendLag is how far behind the trace schedule each query went out
	// (the paper's ΔTᵢ error, Fig 6); Timed mode keeps it near zero.
	sendLag *obs.Histogram
	// The pacer's account separates "the timer was late" from "queued
	// behind earlier sends": timer arms, wake − deadline, timerfd
	// refusals, and the time each wait yielded out after its park — the
	// CPU traded for waking on time.
	pacerSleeps    *obs.Counter
	pacerOversleep *obs.Histogram
	pacerFallback  *obs.Counter
	pacerYield     *obs.Histogram
	// traceOffset/wallOffset are the replay clocks: the trace timestamp
	// most recently scheduled and the wall time consumed reaching it.
	// Their ratio is achieved vs. scheduled send rate; their difference
	// is queue lag end-to-end.
	traceOffset *obs.Gauge
	wallOffset  *obs.Gauge
}

func newStats(reg *obs.Registry) *stats {
	return &stats{
		reg:          reg,
		sent:         reg.Counter("replay.sent"),
		responses:    reg.Counter("replay.responses"),
		sendErrs:     reg.Counter("replay.send_errors"),
		timeouts:     reg.Counter("replay.timeouts"),
		connsOpened:  reg.Counter("replay.conns_opened"),
		idExhausted:  reg.Counter("replay.id_exhausted"),
		idWrapped:    reg.Counter("replay.id_wrapped"),
		bytesSent:    reg.Counter("replay.bytes_sent"),
		badResponses: reg.Counter("replay.bad_responses"),
		rtt:          reg.Histogram("replay.rtt_seconds", obs.FineLatencyBuckets),
		sendLag:      reg.Histogram("replay.send_lag_seconds", obs.FineLatencyBuckets),
		traceOffset:  reg.Gauge("replay.trace_offset_seconds"),
		wallOffset:   reg.Gauge("replay.wall_offset_seconds"),

		pacerSleeps:    reg.Counter("replay.pacer.sleeps"),
		pacerOversleep: reg.Histogram("replay.pacer.oversleep_seconds", obs.FineLatencyBuckets),
		pacerFallback:  reg.Counter("replay.pacer.fallback"),
		pacerYield:     reg.Histogram("replay.pacer.yield_seconds", obs.FineLatencyBuckets),
	}
}

// counterValues is one reading of every replay counter; Run diffs two of
// these so a Report stays per-run even on a shared long-lived registry.
type counterValues struct {
	sent, responses, sendErrs, timeouts            uint64
	connsOpened, idExhausted, idWrapped, bytesSent uint64
}

func statValues(st *stats) counterValues {
	return counterValues{
		sent:        st.sent.Value(),
		responses:   st.responses.Value(),
		sendErrs:    st.sendErrs.Value(),
		timeouts:    st.timeouts.Value(),
		connsOpened: st.connsOpened.Value(),
		idExhausted: st.idExhausted.Value(),
		idWrapped:   st.idWrapped.Value(),
		bytesSent:   st.bytesSent.Value(),
	}
}

// countRcode bumps the per-rcode response counter, creating the series
// on first sighting.
func (st *stats) countRcode(rc dnsmsg.Rcode) {
	if int(rc) >= len(st.rcodes) {
		return
	}
	c := st.rcodes[rc].Load()
	if c == nil {
		// Bounded dynamic family: 16 rcodes, each series cached after
		// first use.
		c = st.reg.Counter("replay.rcode." + rc.String())
		st.rcodes[rc].Store(c)
	}
	c.Inc()
}

// observeSend records one dispatched query's schedule position.
func (st *stats) observeSend(offset, wall time.Duration) {
	st.traceOffset.Set(offset.Seconds())
	st.wallOffset.Set(wall.Seconds())
	if lag := wall - offset; lag > 0 {
		st.sendLag.ObserveDuration(lag)
	} else {
		st.sendLag.Observe(0)
	}
}

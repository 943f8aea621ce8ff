// Package ldplayer is the public API of the LDplayer reproduction: a
// configurable, general-purpose DNS experimentation framework that scales
// in zones, hierarchy levels, query rates and query sources (Zhu &
// Heidemann, "LDplayer: DNS Experimentation at Scale", IMC 2018).
//
// The package re-exports the stable surface of the internal packages:
//
//   - traces and their three formats (pcap / text / internal binary),
//   - the query mutator,
//   - zone construction from captured traffic,
//   - hierarchy emulation (meta-DNS-server + proxies + split horizon),
//   - the distributed replay engine (UDP/TCP/TLS, accurate timing), and
//   - the experiment drivers that regenerate the paper's figures.
//
// See examples/ for runnable walkthroughs and DESIGN.md for the system
// inventory.
package ldplayer

import (
	"context"
	"io"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/experiments"
	"ldplayer/internal/hierarchy"
	"ldplayer/internal/mutate"
	"ldplayer/internal/pcap"
	"ldplayer/internal/replay"
	"ldplayer/internal/server"
	"ldplayer/internal/trace"
	"ldplayer/internal/zone"
	"ldplayer/internal/zoneconstruct"
	"ldplayer/internal/zonegen"
)

// Core DNS types.
type (
	// Msg is a DNS message (wire codec in internal/dnsmsg).
	Msg = dnsmsg.Msg
	// Name is a canonical domain name.
	Name = dnsmsg.Name
	// Zone is an authoritative zone.
	Zone = zone.Zone
)

// Trace types and formats.
type (
	// Trace is an in-memory event sequence.
	Trace = trace.Trace
	// Event is one DNS message at a point in time.
	Event = trace.Event
	// TraceReader streams events.
	TraceReader = trace.Reader
	// TraceWriter consumes events.
	TraceWriter = trace.Writer
	// Proto selects UDP, TCP or TLS.
	Proto = trace.Proto
)

// Transports.
const (
	UDP = trace.UDP
	TCP = trace.TCP
	TLS = trace.TLS
)

// Replay engine.
type (
	// ReplayConfig parameterizes the replay engine.
	ReplayConfig = replay.Config
	// ReplayReport summarizes a replay run.
	ReplayReport = replay.Report
	// Mutator transforms trace events.
	Mutator = mutate.Mutator
)

// Replay modes.
const (
	// Timed replays queries at their original trace times.
	Timed = replay.Timed
	// FastAsPossible ignores timing (load testing).
	FastAsPossible = replay.FastAsPossible
)

// ParseName canonicalizes a domain name ("example.com" -> "example.com.").
func ParseName(s string) (Name, error) { return dnsmsg.ParseName(s) }

// ParseZone reads a zone in master-file syntax.
func ParseZone(r io.Reader, origin Name) (*Zone, error) { return zone.Parse(r, origin) }

// Replay replays a query stream against a DNS server: the paper's
// controller feeding its queriers, in this process.
func Replay(ctx context.Context, cfg ReplayConfig, input TraceReader) (*ReplayReport, error) {
	eng, err := replay.New(cfg)
	if err != nil {
		return nil, err
	}
	return eng.Run(ctx, input)
}

// MutateTrace applies mutators (ForceProtocol, SetDO, PrefixQNames, ...)
// to a trace, returning the transformed copy.
func MutateTrace(t *Trace, ms ...Mutator) (*Trace, error) {
	return mutate.Apply(t, mutate.Chain(ms))
}

// Mutators (see internal/mutate for the full set).
var (
	// ForceProtocol rewrites every query's transport.
	ForceProtocol = mutate.ForceProtocol
	// SetDO sets the DNSSEC-OK bit on a fraction of queries.
	SetDO = mutate.SetDO
	// PrefixQNames tags query names for replay matching.
	PrefixQNames = mutate.PrefixQNames
	// QueriesOnly drops responses from a capture.
	QueriesOnly = mutate.QueriesOnly
	// ScaleTime compresses or stretches the trace timeline.
	ScaleTime = mutate.ScaleTime
)

// ReadPcapDNS opens a pcap stream and yields its DNS messages (UDP and
// reassembled TCP) as trace events.
func ReadPcapDNS(r io.Reader) (TraceReader, error) { return pcap.NewDNSReader(r) }

// NewPcapWriter renders trace events into a pcap capture.
func NewPcapWriter(w io.Writer) *pcap.DNSWriter { return pcap.NewDNSWriter(w) }

// NewBinaryReader / NewBinaryWriter expose the fast internal format.
func NewBinaryReader(r io.Reader) TraceReader { return trace.NewBinaryReader(r) }

// NewBinaryWriter creates a writer for the internal binary trace stream.
func NewBinaryWriter(w io.Writer) *trace.BinaryWriter { return trace.NewBinaryWriter(w) }

// NewTextReader / NewTextWriter expose the editable plain-text format.
func NewTextReader(r io.Reader) TraceReader { return trace.NewTextReader(r) }

// NewTextWriter creates a writer for the plain-text trace format.
func NewTextWriter(w io.Writer) *trace.TextWriter { return trace.NewTextWriter(w) }

// Zone construction from traces (§2.3).
type (
	// ZoneConstructor accumulates captured responses.
	ZoneConstructor = zoneconstruct.Constructor
	// ConstructedZones is the rebuilt hierarchy.
	ConstructedZones = zoneconstruct.Result
)

// NewZoneConstructor creates an empty constructor.
func NewZoneConstructor() *ZoneConstructor { return zoneconstruct.New() }

// Hierarchy emulation (§2.4).
type (
	// Emulation is the meta-DNS-server + proxies + resolver assembly.
	Emulation = hierarchy.Emulation
	// EmulationConfig is its address plan.
	EmulationConfig = hierarchy.Config
	// Hierarchy is a set of zones with their nameserver addressing.
	Hierarchy = zonegen.Hierarchy
)

// NewEmulation wires the full proxy + split-horizon hierarchy emulation.
func NewEmulation(h *Hierarchy, cfg EmulationConfig) (*Emulation, error) {
	return hierarchy.New(h, cfg)
}

// DefaultEmulationConfig is the standard testbed address plan.
func DefaultEmulationConfig() EmulationConfig { return hierarchy.DefaultConfig() }

// GenerateHierarchy synthesizes a root/TLD/SLD zone tree.
func GenerateHierarchy(cfg zonegen.Config) (*Hierarchy, error) { return zonegen.Generate(cfg) }

// Authoritative server.
type (
	// Server is the authoritative DNS server (meta-DNS-server).
	Server = server.Server
	// ServerConfig parameterizes it.
	ServerConfig = server.Config
)

// NewServer creates an authoritative server.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// Experiments (the paper's tables and figures).
type (
	// ExperimentScale bounds experiment size.
	ExperimentScale = experiments.Scale
	// ExperimentResult is a regenerated artifact.
	ExperimentResult = experiments.Result
)

// Experiment scales.
var (
	// ScaleTiny finishes in seconds (tests).
	ScaleTiny = experiments.Tiny
	// ScaleSmall is the CLI default.
	ScaleSmall = experiments.Small
	// ScaleLarge approaches the paper's shape.
	ScaleLarge = experiments.Large
)

// RunExperiment regenerates one table or figure by id ("table1",
// "fig6", "ablation", ...; `ldp-experiments -h` lists every id).
func RunExperiment(id string, sc ExperimentScale) (*ExperimentResult, error) {
	return experiments.ByID(id, sc)
}

// RunAllExperiments regenerates every table and figure in paper order.
func RunAllExperiments(sc ExperimentScale) ([]*ExperimentResult, error) {
	return experiments.All(sc)
}

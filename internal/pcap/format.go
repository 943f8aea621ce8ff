package pcap

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ldplayer/internal/trace"
)

// Format is a trace file format. A trace file's extension names it, and
// FormatOf is the one place that reads the extension.
type Format int

// Trace file formats.
const (
	Binary Format = iota // .ldpb or no extension: trace.BinaryReader / BinaryWriter
	Text                 // .txt: trace.TextReader / TextWriter
	PCAP                 // .pcap: DNSReader / DNSWriter
)

// FormatOf maps a trace file path to its format: .pcap, .txt, .ldpb or
// no extension (binary). Any other extension is an error, so a capture
// or a text trace under an unexpected name is never decoded as binary.
func FormatOf(path string) (Format, error) {
	switch ext := filepath.Ext(path); ext {
	case ".pcap":
		return PCAP, nil
	case ".txt":
		return Text, nil
	case ".ldpb", "":
		return Binary, nil
	default:
		return 0, fmt.Errorf("%s: unknown trace extension %q (want .pcap, .txt, .ldpb or none)", path, ext)
	}
}

// OpenTrace opens the trace file at path for reading in the format its
// extension names. The caller closes the returned file.
func OpenTrace(path string) (trace.Reader, io.Closer, error) {
	format, err := FormatOf(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	switch format {
	case PCAP:
		r, err := NewDNSReader(f)
		if err != nil {
			f.Close() //ldp:nolint errcheck — read-only file on an error path; the header error is the one reported
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return r, f, nil
	case Text:
		return trace.NewTextReader(f), f, nil
	default:
		return trace.NewBinaryReader(f), f, nil
	}
}

// TraceWriter is a buffered trace.Writer: Flush it before closing the
// file under it.
type TraceWriter interface {
	trace.Writer
	Flush() error
}

// NewWriter returns a writer of format f over w.
func (f Format) NewWriter(w io.Writer) TraceWriter {
	switch f {
	case PCAP:
		return NewDNSWriter(w)
	case Text:
		return trace.NewTextWriter(w)
	default:
		return trace.NewBinaryWriter(w)
	}
}

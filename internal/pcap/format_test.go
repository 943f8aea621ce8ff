package pcap

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ldplayer/internal/trace"
)

// TestFormatOf pins the one extension rule every CLI reads traces by.
func TestFormatOf(t *testing.T) {
	for _, tc := range []struct {
		path string
		want Format
	}{
		{"dir/cap.pcap", PCAP},
		{"queries.txt", Text},
		{"trace.ldpb", Binary},
		{"dir.v2/trace", Binary}, // no extension: the name's, not the directory's
	} {
		got, err := FormatOf(tc.path)
		if err != nil || got != tc.want {
			t.Errorf("FormatOf(%q) = %v, %v; want %v", tc.path, got, err, tc.want)
		}
	}
	if _, err := FormatOf("trace.pcapng"); err == nil {
		t.Error("FormatOf(trace.pcapng): no error for an unknown extension")
	}
}

// TestTraceFileRoundTrip writes one query through the writer each
// extension names and reads it back through OpenTrace.
func TestTraceFileRoundTrip(t *testing.T) {
	ev := &trace.Event{
		Time:  time.Unix(100, 0),
		Src:   cliAP,
		Dst:   srvAP,
		Proto: trace.UDP,
		Wire:  dnsWire(t, "www.example.com."),
	}
	dir := t.TempDir()
	for _, name := range []string{"t.pcap", "t.txt", "t.ldpb", "t"} {
		path := filepath.Join(dir, name)
		format, err := FormatOf(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := format.NewWriter(f)
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		r, c, err := OpenTrace(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := trace.ReadAll(r)
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tr.Events) != 1 || !bytes.Equal(tr.Events[0].Wire, ev.Wire) || tr.Events[0].Src != ev.Src {
			t.Fatalf("%s: read back %+v", name, tr.Events)
		}
	}
	if _, _, err := OpenTrace(filepath.Join(dir, "t.pcapng")); err == nil {
		t.Error("OpenTrace(t.pcapng): no error for an unknown extension")
	}
}

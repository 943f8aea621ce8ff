package ldplayer

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
)

// TestCLIPipeline builds the command-line tools and drives the full
// workflow a user follows: generate a trace, inspect it, convert it
// through every format, rebuild zones from a capture, serve them, and
// replay the trace against the live server — all through the binaries.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		return out
	}
	ldpTrace := build("ldp-trace")
	ldpServer := build("ldp-server")
	ldpReplay := build("ldp-replay")
	ldpZC := build("ldp-zoneconstruct")
	ldpDig := build("ldp-dig")

	work := t.TempDir()
	run := func(binPath string, args ...string) string {
		cmd := exec.Command(binPath, args...)
		cmd.Dir = work
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(binPath), args, err, out)
		}
		return string(out)
	}

	// 1. Generate a trace and stat it.
	tracePath := filepath.Join(work, "trace.ldpb")
	run(ldpTrace, "gen", "-model", "synthetic", "-interval", "5ms",
		"-duration", "2s", "-clients", "10", "-out", tracePath)
	statOut := run(ldpTrace, "stat", "-in", tracePath)
	if !strings.Contains(statOut, "records:        400") {
		t.Fatalf("stat output:\n%s", statOut)
	}

	// 2. Convert binary -> text -> pcap -> binary; stats must agree.
	txtPath := filepath.Join(work, "trace.txt")
	pcapPath := filepath.Join(work, "trace.pcap")
	backPath := filepath.Join(work, "back.ldpb")
	run(ldpTrace, "convert", "-in", tracePath, "-out", txtPath)
	run(ldpTrace, "convert", "-in", txtPath, "-out", pcapPath)
	run(ldpTrace, "convert", "-in", pcapPath, "-out", backPath)
	if got := run(ldpTrace, "stat", "-in", backPath); !strings.Contains(got, "records:        400") {
		t.Fatalf("round-trip stat:\n%s", got)
	}

	// 3. Mutate: all TCP + all DO.
	mutPath := filepath.Join(work, "tcp.ldpb")
	run(ldpTrace, "mutate", "-in", tracePath, "-out", mutPath,
		"-force-protocol", "tcp", "-do", "1.0")
	if got := run(ldpTrace, "stat", "-in", mutPath); !strings.Contains(got, "tcp: 400") {
		t.Fatalf("mutated stat:\n%s", got)
	}

	// 4. Zone construction needs responses: build a capture with both
	//    directions by replaying against a scratch server... the simplest
	//    CLI-only route is reconstructing from the repository's testdata
	//    pcap-less path, so here synthesize a response capture with the
	//    library and feed the binary.
	respPcap := filepath.Join(work, "responses.pcap")
	writeResponseCapture(t, respPcap)
	zcOut := run(ldpZC, "-input", respPcap, "-out", filepath.Join(work, "zones"))
	if !strings.Contains(zcOut, "MANIFEST.tsv") {
		t.Fatalf("zoneconstruct output:\n%s", zcOut)
	}

	// 5. Serve the repository's sample zones and replay the trace.
	port := freePort(t)
	srv := exec.Command(ldpServer,
		"-zone", repoPath(t, "testdata/example.com.zone"),
		"-zone", repoPath(t, "testdata/root.zone"),
		"-udp", "127.0.0.1:"+port, "-tcp", "127.0.0.1:"+port, "-stats", "0")
	var srvLog bytes.Buffer
	srv.Stdout, srv.Stderr = &srvLog, &srvLog
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	waitForUDP(t, "127.0.0.1:"+port)
	// Poke the server with ldp-dig over UDP and TCP.
	digOut := run(ldpDig, "-server", "127.0.0.1:"+port, "www.example.com", "A")
	if !strings.Contains(digOut, "192.0.2.80") {
		t.Fatalf("dig UDP:\n%s", digOut)
	}
	digOut = run(ldpDig, "-server", "127.0.0.1:"+port, "-tcp", "example.com", "NS")
	if !strings.Contains(digOut, "NS") {
		t.Fatalf("dig TCP:\n%s", digOut)
	}

	// Timed replay (the 2 s trace plays in 2 s); fast mode would flood
	// the UDP socket buffer when the suite runs tests in parallel.
	replayOut := run(ldpReplay, "-input", tracePath, "-target", "127.0.0.1:"+port)
	if !strings.Contains(replayOut, "sent:        400") {
		t.Fatalf("replay output:\n%s\nserver log:\n%s", replayOut, srvLog.String())
	}
	if responses := replyCount(replayOut); responses < 400*95/100 {
		t.Fatalf("replay lost responses: %d of 400\n%s", responses, replayOut)
	}

	// 6. DNS-over-TLS: a TLS-only server with its self-signed
	//    certificate, replayed with -tls-insecure.
	tlsAddr := "127.0.0.1:" + freePort(t)
	tlsSrv := exec.Command(ldpServer,
		"-zone", repoPath(t, "testdata/example.com.zone"),
		"-udp", "", "-tcp", "", "-tls", tlsAddr, "-stats", "0")
	var tlsLog bytes.Buffer
	tlsSrv.Stdout, tlsSrv.Stderr = &tlsLog, &tlsLog
	if err := tlsSrv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		tlsSrv.Process.Kill()
		tlsSrv.Wait()
	}()
	waitForTCP(t, tlsAddr)
	tlsOut := run(ldpReplay, "-input", tracePath, "-target", tlsAddr,
		"-force-protocol", "tls", "-tls-insecure")
	if got := replyCount(tlsOut); got < 400*95/100 {
		t.Fatalf("TLS replay answered %d of 400\n%s\nserver log:\n%s", got, tlsOut, tlsLog.String())
	}
}

// replyCount reads the answered-query count from ldp-replay's report.
func replyCount(out string) int {
	responses := -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "responses:") {
			fmt.Sscanf(line, "responses:   %d", &responses)
		}
	}
	return responses
}

func repoPath(t *testing.T, rel string) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, rel)
}

func freePort(t *testing.T) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	_, port, _ := net.SplitHostPort(pc.LocalAddr().String())
	return port
}

// waitForTCP waits until addr accepts TCP connections.
func waitForTCP(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("server did not come up")
}

func waitForUDP(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var m Msg
	m.SetQuestion("www.example.com.", 1)
	wire, _ := m.Pack()
	for time.Now().Before(deadline) {
		c, err := net.Dial("udp", addr)
		if err == nil {
			c.Write(wire)
			c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			buf := make([]byte, 512)
			if _, err := c.Read(buf); err == nil {
				c.Close()
				return
			}
			c.Close()
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("server did not come up")
}

// writeResponseCapture synthesizes a pcap with DNS responses for the
// zone-construction step.
func writeResponseCapture(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pw := NewPcapWriter(f)
	var q Msg
	q.ID = 9
	q.SetQuestion("www.example.org.", dnsmsg.TypeA)
	var resp Msg
	resp.SetReply(&q)
	resp.Authoritative = true
	resp.Answer = []dnsmsg.RR{{
		Name: "www.example.org.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 300,
		Data: dnsmsg.A{Addr: netip.MustParseAddr("203.0.113.80")},
	}}
	resp.Authority = []dnsmsg.RR{{
		Name: "example.org.", Type: dnsmsg.TypeNS, Class: dnsmsg.ClassINET, TTL: 3600,
		Data: dnsmsg.NS{Host: "ns1.example.org."},
	}}
	resp.Additional = []dnsmsg.RR{{
		Name: "ns1.example.org.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 3600,
		Data: dnsmsg.A{Addr: netip.MustParseAddr("192.0.2.53")},
	}}
	wire, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	ev := &Event{
		Time:  time.Unix(100, 0),
		Src:   netip.MustParseAddrPort("192.0.2.53:53"),
		Dst:   netip.MustParseAddrPort("192.0.2.1:40000"),
		Proto: UDP,
		Wire:  wire,
	}
	if err := pw.Write(ev); err != nil {
		t.Fatal(err)
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
}

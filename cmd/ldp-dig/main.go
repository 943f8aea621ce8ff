// Command ldp-dig is a minimal dig-like query tool for poking at
// ldp-server instances (or any DNS server): one query over UDP, TCP or
// TLS, with EDNS/DO knobs, printing the response in master-file form.
//
// Usage:
//
//	ldp-dig -server 127.0.0.1:5300 www.example.com A
//	ldp-dig -server 127.0.0.1:5300 -tcp -do example.com DNSKEY
//	ldp-dig -server 127.0.0.1:5300 -axfr example.com
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"time"

	"ldplayer/internal/dnsmsg"
	server2 "ldplayer/internal/server"
	"ldplayer/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldp-dig: ")

	server := flag.String("server", "127.0.0.1:53", "DNS server (host:port)")
	useTCP := flag.Bool("tcp", false, "query over TCP")
	useTLS := flag.Bool("tls", false, "query over TLS (accepts any certificate)")
	do := flag.Bool("do", false, "set the DNSSEC-OK bit (implies EDNS)")
	edns := flag.Int("edns", 0, "advertise EDNS with this UDP size (0 = none unless -do)")
	timeout := flag.Duration("timeout", 3*time.Second, "query timeout")
	axfr := flag.Bool("axfr", false, "transfer the whole zone over TCP and print it")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 || len(args) > 2 {
		log.Fatal("usage: ldp-dig [flags] name [type]")
	}
	name, err := dnsmsg.ParseName(args[0])
	if err != nil {
		log.Fatal(err)
	}
	qtype := dnsmsg.TypeA
	if len(args) == 2 {
		qtype, err = dnsmsg.TypeFromString(args[1])
		if err != nil {
			log.Fatal(err)
		}
	}

	if *axfr {
		// AXFR needs the raw TCP byte stream that FetchAXFR consumes, not a
		// framed transport.Endpoint.
		conn, err := net.DialTimeout("tcp", *server, *timeout)
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(*timeout)); err != nil {
			log.Fatal(err)
		}
		z, err := server2.FetchAXFR(conn, name)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := z.WriteTo(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, ";; transferred %d records for %s\n", z.RecordCount(), name)
		return
	}

	var q dnsmsg.Msg
	q.ID = uint16(rand.Intn(1 << 16))
	q.RecursionDesired = true
	q.SetQuestion(name, qtype)
	if *do && *edns == 0 {
		*edns = 4096
	}
	if *edns > 0 {
		q.SetEDNS(uint16(*edns), *do)
	}
	wire, err := q.Pack()
	if err != nil {
		log.Fatal(err)
	}

	proto := transport.UDP
	switch {
	case *useTLS:
		proto = transport.TLS
	case *useTCP:
		proto = transport.TCP
	}
	dialer := &transport.NetDialer{Dialer: net.Dialer{Timeout: *timeout}}
	if *useTLS {
		dialer.TLSConfig = &tls.Config{InsecureSkipVerify: true}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	start := time.Now()
	ep, err := dialer.Dial(ctx, proto, resolveAddr(*server))
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()
	if err := ep.SetDeadline(time.Now().Add(*timeout)); err != nil {
		log.Fatal(err)
	}
	if err := ep.Send(wire); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, transport.BufSize)
	n, err := ep.Recv(buf)
	if err != nil {
		log.Fatal(err)
	}
	respWire := buf[:n]
	elapsed := time.Since(start)

	var resp dnsmsg.Msg
	if err := resp.Unpack(respWire); err != nil {
		log.Fatalf("undecodable response: %v", err)
	}
	fmt.Println(resp.String())
	fmt.Printf("\n;; %d bytes in %v from %s\n", len(respWire), elapsed.Round(time.Microsecond), *server)
	if resp.Rcode != dnsmsg.RcodeSuccess {
		os.Exit(1)
	}
}

// resolveAddr turns host:port (host may be a name) into an address the
// transport dialer accepts.
func resolveAddr(server string) netip.AddrPort {
	if ap, err := netip.ParseAddrPort(server); err == nil {
		return ap
	}
	ua, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		log.Fatal(err)
	}
	return ua.AddrPort()
}

package server

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"math/big"
	"net"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/obs"
	"ldplayer/internal/transport"
)

// ServeUDP answers queries on conn until ctx is cancelled, running the
// configured number of shards against the one shared socket. Shards on
// a shared socket still keep private caches and counters but contend in
// the kernel on the receive queue; for true multi-core scaling bind one
// socket per shard with transport.ListenUDPReusePort and hand the set
// to ServeUDPShards.
func (s *Server) ServeUDP(ctx context.Context, conn net.PacketConn) error {
	conns := make([]net.PacketConn, s.cfg.UDPWorkers)
	for i := range conns {
		conns[i] = conn
	}
	return s.ServeUDPShards(ctx, conns)
}

// ServeUDPShards answers queries until ctx is cancelled, one shard per
// socket in conns (sockets may repeat — ServeUDP does — in which case
// the repeated socket is shared and only the kernel-side steering is
// lost). Each shard owns its socket, answer cache, buffers and counter
// slots outright; see shard. On cancel every distinct socket gets its
// read deadline re-armed to now so each shard's blocking read returns,
// and the error from every shard is drained and joined — a shard that
// died early no longer hides the others' exits.
func (s *Server) ServeUDPShards(ctx context.Context, conns []net.PacketConn) error {
	if len(conns) == 0 {
		return errors.New("server: ServeUDPShards needs at least one socket")
	}
	stop := context.AfterFunc(ctx, func() {
		poked := make(map[net.PacketConn]bool, len(conns))
		for _, c := range conns {
			if poked[c] {
				continue
			}
			poked[c] = true
			c.SetReadDeadline(time.Now()) //ldp:nolint errcheck — best-effort unblock of the shard read loops on cancel
		}
	})
	defer stop()
	done := make(chan error, len(conns))
	for _, c := range conns {
		sh := s.newShard(c)
		go func() { done <- sh.serve(ctx) }()
	}
	errs := make([]error, 0, len(conns))
	for range conns {
		if err := <-done; err != nil {
			errs = append(errs, err)
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return errors.Join(errs...)
}

// ServeTCP accepts stream connections until ctx is cancelled, answering
// length-prefixed queries and closing connections idle longer than the
// configured timeout — the behaviour the TCP experiments sweep.
func (s *Server) ServeTCP(ctx context.Context, ln net.Listener) error {
	return s.serveStream(ctx, transport.NewStreamListener(ln), s.stats.tcpConnsOpen, s.stats.tcpConnsTotal, s.stats.tcpQueries)
}

// ServeTLS wraps ln with the given TLS config (see SelfSignedTLS) and
// serves it like TCP.
func (s *Server) ServeTLS(ctx context.Context, ln net.Listener, cfg *tls.Config) error {
	return s.serveStream(ctx, transport.NewStreamListener(tls.NewListener(ln, cfg)), s.stats.tlsConnsOpen, s.stats.tlsConnsTotal, s.stats.tlsQueries)
}

func (s *Server) serveStream(ctx context.Context, ln transport.Listener, open *obs.Gauge, total, queries *obs.Counter) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() }) //ldp:nolint errcheck — cancel-path teardown; Accept returns the close error
	defer stop()
	for {
		ep, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		total.Inc()
		open.Add(1)
		go func() {
			defer open.Add(-1)
			defer ep.Close()
			s.streamServe(ctx, ep, queries)
		}()
	}
}

// streamServe answers one stream connection's queries until it idles
// out, closes or breaks. Between queries it holds nothing pooled: each
// message is read into a borrowed buffer (transport.RecvPooled), decoded
// into a pooled Msg, answered into the same buffer and both go back
// before the next wait — an idle connection costs its socket and this
// goroutine.
func (s *Server) streamServe(ctx context.Context, ep transport.Endpoint, queries *obs.Counter) {
	for {
		ep.SetDeadline(time.Now().Add(s.cfg.TCPIdleTimeout)) //ldp:nolint errcheck — a failed deadline surfaces as a Recv error on the next read
		bp, n, err := transport.RecvPooled(ep)
		if err != nil {
			return // idle timeout, client close, or malformed framing
		}
		ok := s.streamAnswer(ep, (*bp)[:n], queries)
		transport.PutBuf(bp)
		if !ok || ctx.Err() != nil {
			return
		}
	}
}

// streamAnswer answers one framed query held in wire, a borrowed pool
// buffer: the request decodes into its own arena, so the response packs
// over the request's bytes (cap(wire) fits any DNS message). It reports
// whether the connection should stay open.
func (s *Server) streamAnswer(ep transport.Endpoint, wire []byte, queries *obs.Counter) bool {
	s.stats.stream.bytesIn.Add(uint64(len(wire) + 2))
	queries.Add(1)
	req := dnsmsg.GetMsg()
	defer dnsmsg.PutMsg(req)
	if err := req.UnpackBuffer(wire); err != nil {
		return false
	}
	src := ep.RemoteAddr().Addr()
	if len(req.Question) == 1 && req.Question[0].Type == dnsmsg.TypeAXFR &&
		req.Opcode == dnsmsg.OpcodeQuery {
		s.stats.stream.queries.Inc()
		s.stats.axfr.Inc()
		return s.handleAXFR(src, req, ep) == nil
	}
	out, err := s.HandleQueryWire(src, req, 0, wire[:0])
	if err != nil || ep.Send(out) != nil {
		return false
	}
	s.stats.stream.bytesOut.Add(uint64(len(out) + 2))
	return true
}

// SelfSignedTLS builds a TLS config with a fresh ECDSA P-256 certificate
// for the given host names/IPs, plus a client config that trusts it.
// Experiments use it so DNS-over-TLS runs with real handshakes and real
// record framing without any external PKI.
func SelfSignedTLS(hosts ...string) (serverCfg, clientCfg *tls.Config, err error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	tmpl := x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "ldplayer-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * time.Hour),
		KeyUsage:              x509.KeyUsageKeyEncipherment | x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			tmpl.IPAddresses = append(tmpl.IPAddresses, ip)
		} else {
			tmpl.DNSNames = append(tmpl.DNSNames, h)
		}
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &priv.PublicKey, priv)
	if err != nil {
		return nil, nil, err
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, nil, err
	}
	cert := tls.Certificate{Certificate: [][]byte{der}, PrivateKey: priv, Leaf: leaf}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	serverCfg = &tls.Config{Certificates: []tls.Certificate{cert}}
	clientCfg = &tls.Config{RootCAs: pool, ServerName: firstOr(hosts, "ldplayer-test")}
	return serverCfg, clientCfg, nil
}

func firstOr(ss []string, def string) string {
	if len(ss) > 0 {
		return ss[0]
	}
	return def
}

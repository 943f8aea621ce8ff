// Package bufaliastest seeds transient-buffer escapes for the bufalias
// golden test. Every `want` line is a leak the checker must flag; every
// unannotated retention goes through a blessed copy point and must stay
// clean.
package bufaliastest

import (
	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/pcap"
	"ldplayer/internal/transport"
	"ldplayer/internal/zone"
)

type store struct {
	data  []byte
	pkt   pcap.Packet
	owner string
	msg   *dnsmsg.Msg
}

var lastPacket []byte

func process([]byte) {}

// fieldStore retains packet views in struct fields and a package-level
// variable: all three invalidated by the reader's next fill.
func fieldStore(r *pcap.Reader, st *store) {
	pkt, err := r.ReadZeroCopy()
	if err != nil {
		return
	}
	st.data = pkt.Data    // want "stored into a field"
	st.pkt = pkt          // want "stored into a field"
	lastPacket = pkt.Data // want "package-level variable"
}

// spawnAndSend hands packet views to concurrent consumers that race the
// next read.
func spawnAndSend(r *pcap.Reader, ch chan []byte) {
	pkt, err := r.ReadZeroCopy()
	if err != nil {
		return
	}
	go func() { // want "captures pkt"
		process(pkt.Data)
	}()
	ch <- pkt.Data // want "sent on a channel"
}

// mapInsert retains a token view in a map that outlives the record.
func mapInsert(sp *zone.StreamParser, owners map[string][]byte) error {
	var rec zone.Rec
	if err := sp.Next(&rec); err != nil {
		return err
	}
	owners["latest"] = rec.Owner // want "stored into a map entry"
	return nil
}

// mapKey uses an arena-backed name view as a map key; the map retains
// the string view while the arena recycles beneath it.
func mapKey(wire []byte, hits map[dnsmsg.Name]int) error {
	m := dnsmsg.GetMsg()
	defer dnsmsg.PutMsg(m)
	if err := m.UnpackBuffer(wire); err != nil {
		return err
	}
	hits[m.Question[0].Name] = 1 // want "used as a map key"
	return nil
}

// keepTokens stores successive token views into a pre-existing slice;
// each Next invalidates every view handed out for the previous record.
func keepTokens(sp *zone.StreamParser, out [][]byte) error {
	var rec zone.Rec
	for i := 0; ; i++ {
		if err := sp.Next(&rec); err != nil {
			return err
		}
		out[i%len(out)] = rec.Owner // want "stored into a slice element"
	}
}

// stashMsg retains the pooled message itself past the frame.
func stashMsg(st *store, wire []byte) error {
	m := dnsmsg.GetMsg()
	if err := m.UnpackBuffer(wire); err != nil {
		dnsmsg.PutMsg(m)
		return err
	}
	st.msg = m // want "stored into a field"
	return nil
}

// handoff passes a pooled message to a goroutine. Flagged even though
// the spawned body returns it: a real call site justifies the handoff
// with a bufalias suppression carrying the ownership story.
func handoff() {
	m := dnsmsg.GetMsg()
	go func(req *dnsmsg.Msg) { // want "passed to a spawned goroutine"
		dnsmsg.PutMsg(req)
	}(m)
}

// batchEscape retains datagram payloads from a pooled transport batch:
// PutBatch restores every Buf to full capacity and the next ReadBatch
// overwrites it in place, so a kept view silently turns into a later
// packet's bytes.
func batchEscape(bc transport.BatchConn, st *store, ch chan []byte) error {
	msp := transport.GetBatch()
	defer transport.PutBatch(msp)
	ms := *msp
	n, err := bc.ReadBatch(ms)
	if err != nil {
		return err
	}
	for i := range ms[:n] {
		st.data = ms[i].Buf // want "stored into a field"
		ch <- ms[i].Buf     // want "sent on a channel"
	}
	return nil
}

// batchCopyOut is the blessed shape: payloads leave the batch only as
// content copies, so recycling cannot reach them. No findings.
func batchCopyOut(bc transport.BatchConn, ch chan []byte) error {
	msp := transport.GetBatch()
	defer transport.PutBatch(msp)
	ms := *msp
	n, err := bc.ReadBatch(ms)
	if err != nil {
		return err
	}
	for i := range ms[:n] {
		ch <- append([]byte(nil), ms[i].Buf[:ms[i].N]...)
	}
	return nil
}

// cloneEscape goes through every blessed copy point: no findings.
func cloneEscape(r *pcap.Reader, sp *zone.StreamParser, st *store, ch chan []byte) error {
	pkt, err := r.ReadZeroCopy()
	if err != nil {
		return err
	}
	st.pkt = pkt.Clone()                       // Clone copies Data out of the block
	st.data = append([]byte(nil), pkt.Data...) // byte-content copy
	owned := make([]byte, len(pkt.Data))
	copy(owned, pkt.Data)
	st.data = owned
	ch <- append([]byte(nil), pkt.Data...)

	var rec zone.Rec
	if err := sp.Next(&rec); err != nil {
		return err
	}
	st.owner = string(rec.Owner) // []byte->string conversion copies
	rr := rec.RR()               // materializes an independent RR
	_ = rr

	m := dnsmsg.GetMsg()
	defer dnsmsg.PutMsg(m)
	if err := m.UnpackBuffer(append([]byte(nil), pkt.Data...)); err != nil {
		return err
	}
	st.msg = m.Detach() // Detach deep-copies off the arena
	return nil
}

// trimInPlace stores one transient view into another of the same
// lifetime: resp.Additional = kept mirrors server.HandleQueryWire's OPT
// filtering and must stay clean (the store's base is itself transient).
func trimInPlace(wire []byte) error {
	resp := dnsmsg.GetMsg()
	defer dnsmsg.PutMsg(resp)
	if err := resp.UnpackBuffer(wire); err != nil {
		return err
	}
	kept := resp.Additional[:0]
	kept = append(kept, resp.Additional...)
	resp.Additional = kept
	return nil
}

// recvEscape keeps views of a pooled receive buffer: PutBuf hands it to
// the next RecvPooled, whose message overwrites the kept bytes.
func recvEscape(ep transport.Endpoint, st *store, ch chan []byte) error {
	bp, n, err := transport.RecvPooled(ep)
	if err != nil {
		return err
	}
	defer transport.PutBuf(bp)
	msg := (*bp)[:n]
	st.data = msg    // want "stored into a field"
	ch <- (*bp)[2:n] // want "sent on a channel"
	lastPacket = *bp // want "package-level variable"
	return nil
}

// recvCopyOut is the blessed shape: the message leaves the borrowed
// buffer only as a content copy. No findings.
func recvCopyOut(ep transport.Endpoint, st *store, ch chan []byte) error {
	bp, n, err := transport.RecvPooled(ep)
	if err != nil {
		return err
	}
	defer transport.PutBuf(bp)
	st.data = append([]byte(nil), (*bp)[:n]...)
	owned := make([]byte, n)
	copy(owned, *bp)
	ch <- owned
	return nil
}

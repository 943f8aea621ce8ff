package pcap

import (
	"net/netip"
)

// Reassembler rebuilds TCP byte streams per flow so DNS-over-TCP messages
// (2-byte length prefix + message, possibly split or batched across
// segments) can be extracted from captures. It handles in-order and
// moderately out-of-order segments by buffering ahead of the expected
// sequence number; traces we generate are in-order, real captures mostly
// are.
type Reassembler struct {
	flows map[flowKey]*flowState
	// MaxBuffered bounds out-of-order buffering per flow.
	MaxBuffered int
}

type flowKey struct {
	src, dst netip.AddrPort
}

type flowState struct {
	nextSeq  uint32
	started  bool
	buf      []byte            // contiguous stream bytes not yet consumed
	pending  map[uint32][]byte // out-of-order segments by sequence
	finished bool
}

// NewReassembler creates an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{flows: make(map[flowKey]*flowState), MaxBuffered: 1 << 20}
}

// Push feeds one decoded TCP segment. It returns any complete DNS
// messages (without the length prefix) newly available on that flow.
func (ra *Reassembler) Push(d *Decoded) [][]byte {
	if !d.IsTCP {
		return nil
	}
	key := flowKey{d.Src(), d.Dst()}
	st := ra.flows[key]
	if st == nil {
		st = &flowState{pending: make(map[uint32][]byte)}
		ra.flows[key] = st
	}
	seq := d.TCP.Seq
	if d.TCP.SYN {
		st.nextSeq = seq + 1
		st.started = true
		return nil
	}
	if d.TCP.RST || d.TCP.FIN {
		st.finished = true
	}
	if len(d.Payload) == 0 {
		return nil
	}
	if !st.started {
		// Mid-stream capture: adopt the first data segment's sequence.
		st.nextSeq = seq
		st.started = true
	}
	// Store, then drain everything contiguous.
	if seqLess(seq, st.nextSeq) {
		// Retransmission of already-consumed data: drop the overlap.
		skip := st.nextSeq - seq
		if int(skip) >= len(d.Payload) {
			return nil
		}
		st.buf = append(st.buf, d.Payload[skip:]...)
		st.nextSeq += uint32(len(d.Payload)) - skip
	} else if seq == st.nextSeq {
		st.buf = append(st.buf, d.Payload...)
		st.nextSeq += uint32(len(d.Payload))
	} else {
		if len(st.pending) < 1024 {
			st.pending[seq] = append([]byte(nil), d.Payload...)
		}
	}
	// Fold in any buffered segments that are now contiguous.
	for {
		p, ok := st.pending[st.nextSeq]
		if !ok {
			break
		}
		delete(st.pending, st.nextSeq)
		st.buf = append(st.buf, p...)
		st.nextSeq += uint32(len(p))
	}
	return st.extract()
}

// extract pops complete length-prefixed DNS messages from the stream.
func (st *flowState) extract() [][]byte {
	var out [][]byte
	for {
		if len(st.buf) < 2 {
			return out
		}
		n := int(st.buf[0])<<8 | int(st.buf[1])
		if n == 0 {
			// Zero-length message: skip the prefix to avoid livelock.
			st.buf = st.buf[2:]
			continue
		}
		if len(st.buf) < 2+n {
			return out
		}
		msg := make([]byte, n)
		copy(msg, st.buf[2:2+n])
		out = append(out, msg)
		st.buf = st.buf[2+n:]
	}
}

// seqLess compares TCP sequence numbers with wraparound.
func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

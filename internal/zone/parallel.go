package zone

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"ldplayer/internal/dnsmsg"
)

// Parallel chunked parsing for large master files. A cheap sequential
// prescan walks the input once to find record boundaries (a record may
// span parenthesized continuation lines, so boundaries cannot be found
// by byte inspection alone) and snapshots the parser state each chunk
// starts with ($ORIGIN/$TTL in effect, last explicit owner for
// blank-owner records, whether the zone has been anchored). Workers
// then run the ordinary streaming parser over their chunk with that
// state injected, and the merge adds chunk results to the zone strictly
// in chunk order — so the resulting Zone, and any error, are identical
// to one sequential pass (buildZone) for every worker count and chunk
// size.

// chunk is one worker's slice of the input plus the parser state in
// effect where it starts.
type chunk struct {
	off, end int // byte range in data
	line     int // line number of the first line in the chunk (1-based)
	recs     int // records the prescan counted in the chunk, a capacity hint

	origin  dnsmsg.Name
	defTTL  uint32
	zoneSet bool
	zoneOrg dnsmsg.Name

	// Last explicit owner token before the chunk, with the origin it
	// was written under; resolved by the worker at startup.
	ownerOff, ownerLen int
	ownerOrigin        dnsmsg.Name
}

// chunkResult carries a worker's parsed records (in input order), its
// first error (already formatted like the sequential parser's), and the
// zone anchor latched during the chunk (a $ORIGIN directive between the
// chunk start and its first record moves the anchor, so the prescan
// snapshot alone is not enough).
type chunkResult struct {
	recs    []recLine
	err     error
	zoneSet bool
	zoneOrg dnsmsg.Name
}

type recLine struct {
	rr   dnsmsg.RR
	line int
}

// ParseParallel reads all of r and parses it with the given number of
// workers (<= 0 means GOMAXPROCS; Parse is ParseParallel with 0). The
// result — zone contents and any error, byte for byte — is identical
// for every worker count.
func ParseParallel(r io.Reader, origin dnsmsg.Name, workers int) (*Zone, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return parseParallel(data, origin, workers, 0)
}

// parseParallel is the in-memory core; chunkTarget 0 picks a size from
// the worker count (tests pass tiny targets to force adversarial record
// boundaries).
func parseParallel(data []byte, origin dnsmsg.Name, workers, chunkTarget int) (*Zone, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if chunkTarget <= 0 {
		chunkTarget = len(data)/(workers*4) + 1
		if chunkTarget < 64*1024 {
			chunkTarget = 64 * 1024
		}
	}
	// prescan opens a second chunk only past chunkTarget bytes, so an
	// input that fits one chunk (every small zone) skips it.
	var chunks []chunk
	var tail prescanState
	if len(data) > chunkTarget && workers > 1 {
		chunks, tail = prescan(data, origin, chunkTarget)
	}
	if len(chunks) <= 1 {
		// One chunk (or one worker): the streaming path as-is.
		return buildZone(NewStreamParserBytes(data, origin))
	}

	// Workers claim chunks in input order and close each one's done
	// channel; the merge consumes them in the same order, so it runs
	// while later chunks are still being parsed.
	results := make([]chunkResult, len(chunks))
	done := make([]chan struct{}, len(chunks))
	recs := 0
	for i, c := range chunks {
		done[i] = make(chan struct{})
		recs += c.recs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	defer next.Store(int64(len(chunks))) // an early error return leaves the rest unclaimed
	for range min(workers, len(chunks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := &StreamParser{}
			for i := int(next.Add(1)) - 1; i < len(chunks); i = int(next.Add(1)) - 1 {
				results[i] = parseChunk(sp, data, chunks[i])
				close(done[i])
			}
		}()
	}

	// Deterministic in-order merge: chunk k's records (and error)
	// strictly before chunk k+1's, which reproduces sequential order.
	var z *Zone
	for i := range results {
		<-done[i]
		res := results[i]
		results[i].recs = nil // merged records are the zone's; let the rest go
		for _, rl := range res.recs {
			if z == nil {
				// The first record anchors the zone exactly where the
				// sequential parser would have: at the anchor latched
				// by the first record or $ORIGIN directive. A chunk
				// that parsed a record always has it set.
				z = New(res.zoneOrg)
				z.nodes = make(map[dnsmsg.Name]*node, recs) // an owner per record at most: no rehashing
			}
			if err := z.Add(rl.rr); err != nil {
				return nil, fmt.Errorf("zone parse line %d: %w", rl.line, err)
			}
		}
		if res.err != nil {
			return nil, res.err
		}
	}
	if z == nil {
		// No records anywhere: replicate the sequential end-state using
		// the final prescan state.
		if tail.zoneSet {
			z = New(tail.zoneOrg)
		} else if tail.origin == "" {
			return nil, fmt.Errorf("zone parse: empty input and no origin")
		} else {
			z = New(tail.origin)
		}
	}
	return z, nil
}

// parseChunk runs the streaming parser over one chunk with the
// prescanned state injected.
func parseChunk(sp *StreamParser, data []byte, c chunk) chunkResult {
	sp.ResetBytes(data[c.off:c.end], c.origin)
	sp.defTTL = c.defTTL
	sp.zoneSet, sp.zoneOrig = c.zoneSet, c.zoneOrg
	sp.line = c.line - 1
	if c.ownerLen > 0 {
		// Resolve the inherited owner (a bare token: the prescan skips
		// quoted ones) with the parser's own name rule under the origin
		// it appeared with. If it does not resolve, the chunk owning
		// that record produces the authoritative error first; this
		// chunk's records are then discarded.
		owner := data[c.ownerOff : c.ownerOff+c.ownerLen]
		if masterFileSafeBytes(owner) {
			if name, err := sp.expandName(owner, c.ownerOrigin); err == nil {
				sp.lastOwner = append(sp.lastOwner[:0], name...)
			}
		}
	}
	res := chunkResult{recs: make([]recLine, 0, c.recs)}
	var rec Rec
	for {
		err := sp.Next(&rec)
		if err == io.EOF {
			res.zoneOrg, res.zoneSet = sp.ZoneOrigin()
			return res
		}
		if err != nil {
			res.err = err
			res.zoneOrg, res.zoneSet = sp.ZoneOrigin()
			return res
		}
		res.recs = append(res.recs, recLine{rr: rec.RR(), line: rec.Line})
	}
}

// prescanState is the running state the prescan tracks between records.
type prescanState struct {
	origin  dnsmsg.Name
	defTTL  uint32
	zoneSet bool
	zoneOrg dnsmsg.Name

	ownerOff, ownerLen int
	ownerOrigin        dnsmsg.Name
}

// prescan walks data once, cheaply, finding record boundaries and the
// state snapshots chunks need. It never produces errors: anything it
// cannot interpret (a bad directive, unbalanced parens, $INCLUDE) stops
// further splitting, and the worker that owns those bytes reproduces
// the exact sequential error. The returned tail state reflects the end
// of input, for the no-records edge cases.
func prescan(data []byte, origin dnsmsg.Name, chunkTarget int) ([]chunk, prescanState) {
	st := prescanState{origin: origin, defTTL: 3600, ownerOff: -1}
	chunks := []chunk{}
	openChunk := func(off, line int) {
		chunks = append(chunks, chunk{
			off: off, end: len(data), line: line,
			origin: st.origin, defTTL: st.defTTL,
			zoneSet: st.zoneSet, zoneOrg: st.zoneOrg,
			ownerOff: st.ownerOff, ownerLen: st.ownerLen, ownerOrigin: st.ownerOrigin,
		})
	}
	openChunk(0, 1)

	pos := 0
	line := 1
	for pos < len(data) {
		recStart, recStartLine := pos, line
		rec, ok := prescanRecord(data, &pos, &line)
		if !ok {
			break // ragged tail: the open chunk's worker owns it
		}
		if rec.skip {
			continue
		}
		// Close the current chunk at this record's boundary once big
		// enough, before applying the record's state effects.
		if recStart-chunks[len(chunks)-1].off >= chunkTarget {
			chunks[len(chunks)-1].end = recStart
			openChunk(recStart, recStartLine)
		}
		switch rec.kind {
		case prescanOrigin:
			n, err := dnsmsg.ParseName(string(data[rec.arg0:rec.arg1]))
			if err != nil || !masterFileSafeBytes(data[rec.arg0:rec.arg1]) {
				pos = len(data) // stop splitting; worker reports it
				continue
			}
			st.origin = n
			if !st.zoneSet {
				st.zoneSet, st.zoneOrg = true, n
			}
		case prescanTTL:
			v, ok := ttlFromTok(data[rec.arg0:rec.arg1], false)
			if !ok {
				pos = len(data)
				continue
			}
			st.defTTL = v
		case prescanBadDirective:
			pos = len(data)
		case prescanData:
			chunks[len(chunks)-1].recs++
			if rec.arg0 >= 0 {
				st.ownerOff, st.ownerLen = rec.arg0, rec.arg1-rec.arg0
				st.ownerOrigin = st.origin
			}
			if !st.zoneSet && st.origin != "" {
				st.zoneSet, st.zoneOrg = true, st.origin
			}
		}
	}
	return chunks, st
}

const (
	prescanData = iota
	prescanOrigin
	prescanTTL
	prescanBadDirective // $INCLUDE, $ORIGIN/$TTL without argument
)

type prescanRec struct {
	skip       bool // token-less at depth 0 (comment/blank/lone-paren line)
	kind       int
	arg0, arg1 int // directive argument span, or explicit owner span (-1,-1 if blank owner)
}

// prescanRecord consumes one line group (a record, or one skipped line)
// from data, advancing pos and line. It tokenizes just enough to track
// quote/comment/paren state and capture the first two token spans; no
// arena, no decoding. ok=false when parens never close or a quoted
// token needs escape processing the cheap scan cannot alias (the tail
// is then left to a worker).
func prescanRecord(data []byte, pos, line *int) (prescanRec, bool) {
	var r prescanRec
	r.arg0, r.arg1 = -1, -1
	depth := 0
	started := false
	firstLine := true
	ntok := 0
	var tok0s, tok0e, tok1s, tok1e int = -1, -1, -1, -1
	tok0quoted := false
	leadingBlankFirst := false

	for *pos < len(data) {
		ls := *pos
		le := ls
		for le < len(data) && data[le] != '\n' {
			le++
		}
		nl := le < len(data)
		if nl {
			*pos = le + 1
		} else {
			*pos = le
		}
		if le > ls && data[le-1] == '\r' {
			le--
		}
		*line++

		// Tokenize the line for counting and the first two spans.
		lineToks := 0
		i := ls
		leadingBlank := le > ls && (data[ls] == ' ' || data[ls] == '\t')
	scan:
		for i < le {
			switch c := data[i]; {
			case c == ';':
				break scan
			case c == ' ' || c == '\t':
				i++
			case c == '(':
				depth++
				i++
			case c == ')':
				depth--
				i++
			case c == '"':
				j := i + 1
				for j < le && data[j] != '"' {
					if data[j] == '\\' && j+1 < le {
						j++
					}
					j++
				}
				if lineToks+ntok == 0 {
					tok0s, tok0e, tok0quoted = i+1, j, true
				} else if lineToks+ntok == 1 {
					tok1s, tok1e = i+1, j
				}
				lineToks++
				i = j + 1
			default:
				j := i
				for j < le && !special[data[j]] {
					j++
				}
				if lineToks+ntok == 0 {
					tok0s, tok0e = i, j
				} else if lineToks+ntok == 1 {
					tok1s, tok1e = i, j
				}
				lineToks++
				i = j
			}
		}
		if !started {
			if lineToks == 0 {
				// Skipped line: paren deltas discarded entirely, even
				// unbalanced ones, exactly like scanRecord.
				depth = 0
				r.skip = true
				return r, true
			}
			started = true
			leadingBlankFirst = leadingBlank && firstLine
		}
		ntok += lineToks
		firstLine = false
		if depth < 0 {
			return r, false // unbalanced ')': worker reports it
		}
		if depth == 0 {
			break
		}
		if *pos >= len(data) {
			return r, false // unclosed '(' at EOF
		}
	}
	if depth != 0 {
		return r, false
	}

	// Classify. A leading blank on the record's first line means blank
	// owner (the marker token), so tok0 is really the owner only when
	// the line started flush left.
	if !leadingBlankFirst && !tok0quoted && tok0e > tok0s && data[tok0s] == '$' {
		d := string(data[tok0s:tok0e])
		switch d {
		case "$ORIGIN":
			if tok1s < 0 {
				r.kind = prescanBadDirective
				return r, true
			}
			r.kind, r.arg0, r.arg1 = prescanOrigin, tok1s, tok1e
			return r, true
		case "$TTL":
			if tok1s < 0 {
				r.kind = prescanBadDirective
				return r, true
			}
			r.kind, r.arg0, r.arg1 = prescanTTL, tok1s, tok1e
			return r, true
		case "$INCLUDE":
			r.kind = prescanBadDirective
			return r, true
		}
	}
	r.kind = prescanData
	if !leadingBlankFirst && !tok0quoted && tok0e > tok0s {
		r.arg0, r.arg1 = tok0s, tok0e
	}
	return r, true
}

package replay

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// resultLog is the querier's per-query result storage, built so the
// send path never takes a lock: the querier goroutine (single writer)
// reserves slots, and connection read loops write each response's RTT
// into its already-reserved slot. The only shared mutation is an
// atomic pointer load.
//
// Safety argument: slots live in fixed-size chunks that never move. The
// chunk directory grows copy-on-write — reserve installs a new
// directory before handing out a slot from the new chunk, so any reader
// holding that slot's index observes a directory that contains its
// chunk (the reserve's atomic Store happens before the Send that
// publishes the index, which happens before the response callback).
// Writer and reader touch disjoint fields of a slot (reserve fills the
// descriptive fields before Send; the callback writes RTT after),
// and mergeResults runs only after Close()+Wait() quiesces every callback.

// resultChunkLen balances directory churn against slack: 1024 slots is
// one directory append per ~64 KiB of results.
const resultChunkLen = 1024

type resultChunk [resultChunkLen]QueryResult

type resultLog struct {
	dir atomic.Pointer[[]*resultChunk]
	n   int // slots reserved; owned by the single reserving goroutine
}

// reserve hands out the next slot. Single-writer: only the owning
// querier goroutine calls it.
func (l *resultLog) reserve() (int, *QueryResult) {
	ci, si := l.n/resultChunkLen, l.n%resultChunkLen
	dirp := l.dir.Load()
	if si == 0 {
		var old []*resultChunk
		if dirp != nil {
			old = *dirp
		}
		nd := make([]*resultChunk, len(old)+1)
		copy(nd, old)
		nd[len(old)] = new(resultChunk)
		l.dir.Store(&nd)
		dirp = &nd
	}
	idx := l.n
	l.n++
	return idx, &(*dirp)[ci][si]
}

// at returns the slot for a reserved index; any goroutine may call it.
func (l *resultLog) at(idx int) *QueryResult {
	dirp := l.dir.Load()
	if idx < 0 || dirp == nil || idx/resultChunkLen >= len(*dirp) {
		return nil
	}
	return &(*dirp)[idx/resultChunkLen][idx%resultChunkLen]
}

// mergeResults builds the report's Results from the queriers' logs in
// one exact-size allocation, sorted by TraceOffset. A querier sends in
// trace order, so each log is sorted and a k-way merge suffices; ties go
// to the earlier log, then the earlier send, so a source (it rides one
// querier) keeps its send order. Input that was not time-ordered leaves
// a log unsorted: a stable in-place sort then keeps that property.
// Writers must have quiesced (run() returned, conns closed and waited).
func mergeResults(reports []*queryReport) []QueryResult {
	var stack [16]logCursor // covers the default querier pools; more logs spill to the heap
	cs, total := stack[:0], 0
	for _, r := range reports {
		if l := &r.results; l.n > 0 {
			cs = append(cs, logCursor{chunks: *l.dir.Load(), n: l.n})
			total += l.n
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]QueryResult, total)
	for i := range out {
		m := 0
		for j := 1; j < len(cs); j++ {
			if cs[j].head().TraceOffset < cs[m].head().TraceOffset {
				m = j
			}
		}
		out[i] = *cs[m].head()
		if cs[m].i++; cs[m].i == cs[m].n {
			cs = append(cs[:m], cs[m+1:]...) // keeps log order for ties
		}
	}
	byOffset := func(a, b QueryResult) int { return cmp.Compare(a.TraceOffset, b.TraceOffset) }
	if !slices.IsSortedFunc(out, byOffset) {
		slices.SortStableFunc(out, byOffset)
	}
	return out
}

// logCursor walks one log's slots in send order.
type logCursor struct {
	chunks []*resultChunk
	i, n   int
}

func (c *logCursor) head() *QueryResult { return &c.chunks[c.i/resultChunkLen][c.i%resultChunkLen] }

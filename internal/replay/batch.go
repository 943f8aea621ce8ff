package replay

import "sync"

// The controller moves queries to its queriers in batches: it
// accumulates items per querier lane and hands the lane a whole batch,
// so one channel operation (and one scheduler wake-up) covers up to
// BatchSize queries instead of one. Batches are pooled — the
// steady-state hot path allocates nothing per query — and same-source
// ordering survives because a source sticks to one lane and a lane's
// batches are appended and consumed in FIFO order.

// batch is one controller→querier hand-off: up to Config.BatchSize items.
type batch struct {
	items []item
}

var itemBatchPool = sync.Pool{New: func() any { return new(batch) }}

// getBatch returns an empty pooled batch with room for size items.
func getBatch(size int) *batch {
	b := itemBatchPool.Get().(*batch)
	if cap(b.items) < size {
		b.items = make([]item, 0, size)
	}
	b.items = b.items[:0]
	return b
}

// putBatch recycles a consumed batch, dropping event pointers so the
// pool never pins trace wire buffers across runs.
func putBatch(b *batch) {
	for i := range b.items {
		b.items[i].ev = nil
	}
	b.items = b.items[:0]
	itemBatchPool.Put(b)
}

// laneBatcher accumulates items per querier lane and forwards full
// batches; the flushes forward partial ones.
type laneBatcher struct {
	outs []chan *batch
	cur  []*batch
	size int
}

func newLaneBatcher(outs []chan *batch, size int) *laneBatcher {
	return &laneBatcher{outs: outs, cur: make([]*batch, len(outs)), size: size}
}

// add appends one item to lane's open batch, forwarding it when full.
func (lb *laneBatcher) add(lane int, it item) {
	b := lb.cur[lane]
	if b == nil {
		b = getBatch(lb.size)
		lb.cur[lane] = b
	}
	b.items = append(b.items, it)
	if len(b.items) >= lb.size {
		lb.cur[lane] = nil
		lb.outs[lane] <- b
	}
}

// flush forwards lane's partial batch, if any.
func (lb *laneBatcher) flush(lane int) {
	if b := lb.cur[lane]; b != nil {
		lb.cur[lane] = nil
		lb.outs[lane] <- b
	}
}

// flushIdle forwards the partial batch of every lane whose querier has
// nothing queued: an idle querier would otherwise wait on batch-mates
// still to be read, while a busy one loses nothing by getting a fuller
// batch later.
func (lb *laneBatcher) flushIdle() {
	for lane, out := range lb.outs {
		if len(out) == 0 {
			lb.flush(lane)
		}
	}
}

// flushAll forwards every partial batch.
func (lb *laneBatcher) flushAll() {
	for lane := range lb.outs {
		lb.flush(lane)
	}
}

// closeAll flushes remaining items and closes every output lane.
func (lb *laneBatcher) closeAll() {
	for lane, out := range lb.outs {
		lb.flush(lane)
		close(out)
	}
}

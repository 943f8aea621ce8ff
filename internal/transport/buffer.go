package transport

import "sync"

// BufSize fits any DNS message (65535 bytes) plus the 2-byte stream
// length prefix, rounded to a power of two.
const BufSize = 64 * 1024

// bufPool recycles read/write buffers across every transport hot path.
// The seed implementation allocated a fresh 64 KiB slice per exchange
// (resolver), per socket reader (replay, server) and per query (dig);
// at replay rates that is gigabytes per second of garbage. Pool entries
// are *[]byte so Put itself does not allocate.
//
// Ownership rule: a buffer is held only while a message is in hand.
// A stream reader waiting for its next message holds none (RecvPooled),
// so an idle connection costs its socket, its goroutine and its pending
// map, not 64 KiB.
var bufPool = sync.Pool{
	New: func() any {
		obsBufAllocs.Inc()
		b := make([]byte, BufSize)
		return &b
	},
}

// GetBuf borrows a BufSize buffer from the pool. Pass the returned
// pointer back to PutBuf when done; use (*bp) for the working slice.
func GetBuf() *[]byte {
	obsBufGets.Inc()
	return bufPool.Get().(*[]byte)
}

// PutBuf returns a buffer borrowed with GetBuf. Callers must not retain
// any view of the buffer afterwards — message bytes handed to callbacks
// are only valid until the callback returns.
func PutBuf(bp *[]byte) {
	if bp != nil && cap(*bp) >= BufSize {
		*bp = (*bp)[:BufSize]
		obsBufPuts.Inc()
		bufPool.Put(bp)
	}
}

// PooledReceiver is the buffer-on-ready read: wait for the next message
// holding no buffer, borrow one from the pool only once the message is
// there, and return it as RecvPooled does. The stream and vnet
// endpoints implement it; a wrapping Endpoint defined elsewhere keeps it
// by forwarding to RecvPooled on the Endpoint it wraps. A connected UDP
// endpoint does not: nothing long-lived reads one (the replay engine
// sends UDP through one unconnected socket per querier).
type PooledReceiver interface {
	RecvPooled() (bp *[]byte, n int, err error)
}

// RecvPooled waits for ep's next message and returns it in a buffer
// borrowed from the pool: the message is (*bp)[:n], valid until the
// caller hands bp to PutBuf, which it must do once the message is
// handled. On error bp is nil. An Endpoint without PooledReceiver gets
// the plain blocking read — borrow first, then wait in Recv. Like Recv,
// one reader at a time per endpoint.
func RecvPooled(ep Endpoint) (bp *[]byte, n int, err error) {
	if pr, ok := ep.(PooledReceiver); ok {
		return pr.RecvPooled()
	}
	return recvBorrowed(ep)
}

// recvBorrowed is the blocking read behind RecvPooled's fallback.
func recvBorrowed(ep Endpoint) (*[]byte, int, error) {
	bp := GetBuf()
	n, err := ep.Recv(*bp)
	if err != nil {
		PutBuf(bp)
		return nil, 0, err
	}
	return bp, n, nil
}

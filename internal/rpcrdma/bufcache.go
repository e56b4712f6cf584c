package rpcrdma

import (
	"sync"
	"sync/atomic"

	"dpurpc/internal/arena"
	"dpurpc/internal/rdma"
)

// Connection buffers are what a connection costs to set up: the Table I
// sizes put 3 MiB of DPU send buffer and 16 MiB of host send buffer, plus
// the receive buffer mirroring each, behind every Connect. A verbs stack
// keeps a registration cache because registering memory is the expensive
// step; here the expense is allocating and zeroing it. Returned buffers are
// kept process-wide in one sync.Pool per exact byte size, as xrpc's frame
// pools keep request frames: the GC trims idle ones (an idle buffer
// survives one GC in the pool's victim cache), and there is no bound to
// configure.
//
// A buffer taken from the cache is NOT zeroed — that is the saving — so
// every byte a connection reads or transmits must be one it wrote first or
// one its sender cleared (sender.takeBlock).
var bufCache struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool
}

var bufHits, bufMisses atomic.Uint64

// bufPool returns the pool of n-byte buffers.
func bufPool(n int) *sync.Pool {
	bufCache.mu.Lock()
	defer bufCache.mu.Unlock()
	p := bufCache.pools[n]
	if p == nil {
		if bufCache.pools == nil {
			bufCache.pools = make(map[int]*sync.Pool)
		}
		p = new(sync.Pool)
		bufCache.pools[n] = p
	}
	return p
}

// takeBuf returns an n-byte connection buffer: a returned one, holding
// whatever its connection left in it, or else a fresh one.
func takeBuf(n int) []byte {
	if b, _ := bufPool(n).Get().(*[]byte); b != nil {
		bufHits.Add(1)
		return *b
	}
	bufMisses.Add(1)
	return make([]byte, n)
}

// returnBuf hands a connection buffer back to the cache (poisoned first
// under the release-poisoning test hook). Nothing may touch b afterwards.
func returnBuf(b []byte) {
	arena.PoisonReleased(b)
	bufPool(len(b)).Put(&b)
}

// BufferCacheStats returns how many Connect buffers the process has taken
// from the cache (hits) and how many it had to allocate (misses). Each
// Connect takes four. Safe from any goroutine.
func BufferCacheStats() (hits, misses uint64) {
	return bufHits.Load(), bufMisses.Load()
}

// connPair is one Connect's buffers and the QPs that can write into them.
type connPair struct {
	released atomic.Bool
	qps      [2]*rdma.QP
	bufs     [4][]byte
}

// release quiesces both QPs — a delay line may still be flushing writes
// into the peer's receive buffer after QP.Close — and returns the buffers.
// Idempotent.
func (p *connPair) release() {
	if !p.released.CompareAndSwap(false, true) {
		return
	}
	for _, qp := range p.qps {
		qp.Quiesce()
	}
	for _, b := range p.bufs {
		returnBuf(b)
	}
}

// Recycle returns the buffers of the connection whose two ends are c and s
// to the cache, for a later Connect of the same sizes to take dirty. The
// caller must be done with both ends: c's owner, s's poller goroutine and
// s's duplex workers (ServerPoller.Close joins them) have stopped, and
// nothing will read a view into either buffer again. Recycle closes both
// QPs and waits out their delay lines. Ends of different connections, or a
// pair already recycled, are left alone; buffers never recycled are left to
// the GC. Safe from any goroutine.
func Recycle(c *ClientConn, s *ServerConn) {
	if c.pair != nil && c.pair == s.pair {
		c.pair.release()
	}
}

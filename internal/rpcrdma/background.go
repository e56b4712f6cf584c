package rpcrdma

import (
	"sync"

	"dpurpc/internal/rdma"
)

// Background RPC execution (Sec. III-D): "Foreground RPCs are directly
// executed in the polling thread, while background RPCs are executed in
// background threads. Background RPCs are well-used for long-running RPCs."
// The paper designs for this mode and notes it needs a thread pool and
// extra bookkeeping; this file is that thread pool, and the client's
// ConservativeAcks mode is the bookkeeping: a request block may only be
// recycled once *all* its requests are answered, because a background
// handler may still be reading the block after the first response leaves.
//
// Determinism is preserved: request IDs are still allocated in block order
// on the poller thread at receive time; only the handler execution and the
// response order move off it.

// bgTask is one request dispatched to the pool.
type bgTask struct {
	id  uint16
	req Request
}

// bgPool runs handlers for one connection on worker goroutines and feeds
// completed responses back to the poller thread.
type bgPool struct {
	tasks chan bgTask

	mu      sync.Mutex
	results []bgResult
	pending int

	wg     sync.WaitGroup
	closed bool
}

type bgResult struct {
	id   uint16
	spec ResponseSpec
}

// newBGPool starts the workers; each rings wake (the poller's receive CQ)
// after queueing a result, so the poller drains it at once instead of on its
// next heartbeat.
func newBGPool(workers int, handler Handler, wake *rdma.CQ) *bgPool {
	p := &bgPool{tasks: make(chan bgTask, 4*IDPoolSize/16)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		wid := i + 1
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t.req.Worker = wid
				spec := handler(t.req)
				p.mu.Lock()
				p.results = append(p.results, bgResult{id: t.id, spec: spec})
				p.mu.Unlock()
				wake.Kick()
			}
		}()
	}
	return p
}

// submit hands one request to the pool.
func (p *bgPool) submit(id uint16, req Request) {
	p.mu.Lock()
	p.pending++
	p.mu.Unlock()
	p.tasks <- bgTask{id: id, req: req}
}

// drain returns completed responses (in completion order) and clears the
// internal list. Called from the poller thread.
func (p *bgPool) drain(into []bgResult) []bgResult {
	p.mu.Lock()
	defer p.mu.Unlock()
	into = append(into, p.results...)
	p.pending -= len(p.results)
	p.results = p.results[:0]
	return into
}

// Pending returns the number of submitted-but-undrained requests.
func (p *bgPool) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// close stops the workers after the queue drains.
func (p *bgPool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.tasks)
	p.wg.Wait()
}

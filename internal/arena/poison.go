package arena

import "sync/atomic"

// poisonOnRelease is a test hook shared by every pool of datapath memory —
// xRPC request frames, DPU response buffers, RPC-over-RDMA connection
// buffers: while set, a buffer handed back to its pool is overwritten first,
// so a reader that outlives its buffer's owner, or a new owner that relies
// on memory it never wrote, sees 0xDB instead of plausible stale bytes.
var poisonOnRelease atomic.Bool

// SetPoisonOnRelease switches the release-poisoning test hook. Tests only.
func SetPoisonOnRelease(on bool) { poisonOnRelease.Store(on) }

// PoisonReleased is called on a buffer on its way back to its pool — by
// xrpc for request frames, by the offload layer for response buffers, by
// rpcrdma for connection buffers — and overwrites its whole capacity with
// 0xDB while the test hook is on.
func PoisonReleased(b []byte) {
	if !poisonOnRelease.Load() {
		return
	}
	b = b[:cap(b)]
	if len(b) == 0 {
		return
	}
	b[0] = 0xDB
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

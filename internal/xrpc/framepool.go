package xrpc

import (
	"math/bits"
	"sync"

	"dpurpc/internal/arena"
)

// Request frames are read into pooled buffers, one power-of-two size class
// per sync.Pool. A frame is acquired by the connection's reader goroutine and
// released by whichever handler goroutine wrote its response, so a shared
// per-class sync.Pool is the fit (single-owner free lists are not); it also
// lets the GC trim classes that have gone idle. Frames above the largest
// class are allocated exactly and left to the GC: pooling them would pin up
// to MaxFrameSize per idle buffer.
const (
	minFrameBits = 8  // 256 B: a small request with its method name
	maxFrameBits = 20 // 1 MiB: the largest pooled class
)

var framePools [maxFrameBits - minFrameBits + 1]sync.Pool

// frame is one request body and the buffer it was read into.
type frame struct {
	buf   []byte // len == cap: the class size, or the exact length when unpooled
	class int8   // index into framePools; -1 when unpooled
}

// frameClass returns the pool class of an n-byte frame body and the buffer
// capacity it pins; class -1 (and exactly n) above the largest class.
func frameClass(n int) (class, size int) {
	if n > 1<<maxFrameBits {
		return -1, n
	}
	if n > 1<<minFrameBits {
		class = bits.Len(uint(n-1)) - minFrameBits
	}
	return class, 1 << (minFrameBits + class)
}

// getFrame returns a frame whose buffer holds at least n bytes.
func getFrame(n int) *frame {
	class, size := frameClass(n)
	if class >= 0 {
		if f, _ := framePools[class].Get().(*frame); f != nil {
			return f
		}
	}
	return &frame{buf: make([]byte, size), class: int8(class)}
}

// release returns the frame to its pool. Nothing may read f.buf afterwards.
func (f *frame) release() {
	arena.PoisonReleased(f.buf)
	if f.class >= 0 {
		framePools[f.class].Put(f)
	}
}

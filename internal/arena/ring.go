package arena

import (
	"errors"
	"fmt"
)

// ErrOutOfOrderFree is returned by Ring.Free when the freed offset is not
// the oldest live allocation.
var ErrOutOfOrderFree = errors.New("arena: ring buffer requires FIFO frees")

// Ring is a fixed-size ring-buffer allocator: allocations advance a head
// pointer and must be released strictly in allocation order.
//
// It exists as the design alternative the paper rejects (Sec. IV-A:
// "RPCs can be completed out-of-order on the server side: a future request
// can outlive a past one, making dynamic allocation a better solution than
// standard ring buffers"). The ablation benchmarks drive both allocators
// with an out-of-order completion trace: the ring either errors on
// out-of-order frees or — when frees are deferred until they are in order —
// stalls with most of its capacity trapped behind one long-lived block,
// which is exactly the pathology the offset-based Allocator avoids.
type Ring struct {
	size uint64
	head uint64 // monotonic bytes consumed
	tail uint64 // monotonic bytes released

	fifo []ringSpan

	allocs, frees, failures uint64
}

type ringSpan struct {
	end  uint64 // monotonic head after this allocation
	data uint64 // physical offset returned to the caller
}

// NewRing returns a ring allocator over a virtual space of size bytes.
func NewRing(size uint64) *Ring {
	return &Ring{size: size}
}

// Size returns the capacity.
func (r *Ring) Size() uint64 { return r.size }

// InUse returns the bytes between tail and head (live data plus padding).
func (r *Ring) InUse() uint64 { return r.head - r.tail }

// Live returns the number of live allocations.
func (r *Ring) Live() int { return len(r.fifo) }

// Stats returns cumulative counters.
func (r *Ring) Stats() (allocs, frees, failures uint64) {
	return r.allocs, r.frees, r.failures
}

// Alloc reserves size bytes at the given power-of-two alignment and returns
// the physical offset within the ring.
func (r *Ring) Alloc(size, align uint64) (uint64, error) {
	if size == 0 {
		return 0, ErrInvalidSize
	}
	if align == 0 || align&(align-1) != 0 {
		return 0, ErrInvalidAlign
	}
	if size > r.size {
		r.failures++
		return 0, fmt.Errorf("%w: %d bytes in a %d-byte ring", ErrOutOfMemory, size, r.size)
	}
	phys := r.head % r.size
	aligned := (phys + align - 1) &^ (align - 1)
	pad := aligned - phys
	if aligned+size > r.size {
		// A block may not wrap the edge: skip to the ring start.
		pad = r.size - phys
		aligned = 0
	}
	newHead := r.head + pad + size
	if newHead-r.tail > r.size {
		r.failures++
		return 0, fmt.Errorf("%w: ring full (%d in use of %d; the oldest block pins the tail)",
			ErrOutOfMemory, r.InUse(), r.size)
	}
	r.head = newHead
	r.fifo = append(r.fifo, ringSpan{end: newHead, data: aligned})
	r.allocs++
	return aligned, nil
}

// Free releases the OLDEST allocation; offset must be the value Alloc
// returned for it. Releasing anything else fails — the ring's defining
// limitation under out-of-order completion.
func (r *Ring) Free(offset uint64) error {
	if len(r.fifo) == 0 {
		return fmt.Errorf("%w: offset %d", ErrInvalidFree, offset)
	}
	oldest := r.fifo[0]
	if offset != oldest.data {
		return fmt.Errorf("%w: offset %d (oldest is %d)", ErrOutOfOrderFree, offset, oldest.data)
	}
	r.tail = oldest.end
	r.fifo = r.fifo[0:copy(r.fifo, r.fifo[1:])]
	r.frees++
	return nil
}

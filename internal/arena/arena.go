// Package arena provides the two allocators the RPC-over-RDMA datapath is
// built on, both operating purely on offsets so they can manage *remote*
// memory:
//
//   - Allocator: a first-fit, coalescing allocator over a virtual address
//     space with fully external bookkeeping, emulating the Vulkan® Memory
//     Allocator the paper uses for send-buffer block allocation (Sec. IV-A).
//     Unlike classic malloc, no header precedes an allocation, so the
//     allocator can manage a peer's receive buffer without ever touching it.
//     Blocks can be freed out of order, which the paper calls out as the
//     reason a ring buffer is insufficient (RPCs complete out of order).
//
//   - Bump: a trivial arena-buffer allocator over a byte slice, used for the
//     in-block object construction performed by the arena deserializer
//     (Sec. V-C).
//
// Neither allocator touches the system allocator on the hot path, which is
// what produces the paper's "almost zero last-level cache misses /
// no system allocator in the RPC datapath" observation (Sec. VI-C5).
package arena

import (
	"errors"
	"fmt"
	"sort"
)

// Errors returned by the allocators.
var (
	ErrOutOfMemory   = errors.New("arena: out of memory")
	ErrInvalidFree   = errors.New("arena: free of unallocated offset")
	ErrInvalidSize   = errors.New("arena: invalid size")
	ErrInvalidAlign  = errors.New("arena: alignment must be a power of two")
	ErrSpaceTooSmall = errors.New("arena: backing space too small")
)

// span is a contiguous free range [off, off+size).
type span struct {
	off  uint64
	size uint64
}

// Allocator manages a virtual address space [0, size) with external
// bookkeeping. It is not safe for concurrent use; in the datapath each
// connection owns its allocator, mirroring the paper's
// one-poller-per-connection design.
type Allocator struct {
	size uint64
	free []span            // sorted by offset, never adjacent (always coalesced)
	live map[uint64]uint64 // offset -> size of live allocations

	allocs   uint64
	frees    uint64
	inUse    uint64
	peakUse  uint64
	failures uint64
}

// NewAllocator returns an allocator over a virtual space of size bytes.
func NewAllocator(size uint64) *Allocator {
	a := &Allocator{size: size, live: make(map[uint64]uint64)}
	if size > 0 {
		a.free = []span{{0, size}}
	}
	return a
}

// Size returns the total virtual space managed.
func (a *Allocator) Size() uint64 { return a.size }

// InUse returns the number of bytes currently allocated.
func (a *Allocator) InUse() uint64 { return a.inUse }

// PeakUse returns the high-water mark of InUse.
func (a *Allocator) PeakUse() uint64 { return a.peakUse }

// Live returns the number of live allocations.
func (a *Allocator) Live() int { return len(a.live) }

// Stats returns cumulative counters: allocations, frees, and failed
// allocation attempts.
func (a *Allocator) Stats() (allocs, frees, failures uint64) {
	return a.allocs, a.frees, a.failures
}

// Alloc reserves size bytes at the given power-of-two alignment and returns
// the offset. It fails with ErrOutOfMemory when no free span fits.
func (a *Allocator) Alloc(size, align uint64) (uint64, error) {
	if size == 0 {
		return 0, ErrInvalidSize
	}
	if align == 0 || align&(align-1) != 0 {
		return 0, ErrInvalidAlign
	}
	for i := range a.free {
		s := a.free[i]
		aligned := (s.off + align - 1) &^ (align - 1)
		pad := aligned - s.off
		if s.size < pad || s.size-pad < size {
			continue
		}
		// Carve [aligned, aligned+size) out of s, returning the leading pad
		// and trailing remainder (if any) to the free list.
		tailOff := aligned + size
		tailSize := s.off + s.size - tailOff
		switch {
		case pad == 0 && tailSize == 0:
			a.free = append(a.free[:i], a.free[i+1:]...)
		case pad == 0:
			a.free[i] = span{tailOff, tailSize}
		case tailSize == 0:
			a.free[i] = span{s.off, pad}
		default:
			a.free[i] = span{s.off, pad}
			a.free = append(a.free, span{})
			copy(a.free[i+2:], a.free[i+1:])
			a.free[i+1] = span{tailOff, tailSize}
		}
		a.live[aligned] = size
		a.allocs++
		a.inUse += size
		if a.inUse > a.peakUse {
			a.peakUse = a.inUse
		}
		return aligned, nil
	}
	a.failures++
	return 0, fmt.Errorf("%w: need %d bytes (align %d), %d in use of %d",
		ErrOutOfMemory, size, align, a.inUse, a.size)
}

// Free releases the allocation at offset, coalescing with neighbouring free
// spans. Offsets may be freed in any order.
func (a *Allocator) Free(offset uint64) error {
	size, ok := a.live[offset]
	if !ok {
		return fmt.Errorf("%w: offset %d", ErrInvalidFree, offset)
	}
	delete(a.live, offset)
	a.frees++
	a.inUse -= size

	// Insertion point in the sorted free list.
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off > offset })
	// Try to merge with predecessor (i-1) and successor (i).
	mergePrev := i > 0 && a.free[i-1].off+a.free[i-1].size == offset
	mergeNext := i < len(a.free) && offset+size == a.free[i].off
	switch {
	case mergePrev && mergeNext:
		a.free[i-1].size += size + a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	case mergePrev:
		a.free[i-1].size += size
	case mergeNext:
		a.free[i].off = offset
		a.free[i].size += size
	default:
		a.free = append(a.free, span{})
		copy(a.free[i+1:], a.free[i:])
		a.free[i] = span{offset, size}
	}
	return nil
}

// SizeOf returns the size of the live allocation at offset (0 if not live).
func (a *Allocator) SizeOf(offset uint64) uint64 { return a.live[offset] }

// CheckInvariants validates internal consistency: the free list is sorted,
// coalesced, within bounds, disjoint from live allocations, and free+live
// bytes account for the entire space. Used by the property tests.
func (a *Allocator) CheckInvariants() error {
	var freeBytes uint64
	for i, s := range a.free {
		if s.size == 0 {
			return fmt.Errorf("arena: empty free span at %d", i)
		}
		if s.off+s.size > a.size {
			return fmt.Errorf("arena: free span [%d,%d) out of bounds", s.off, s.off+s.size)
		}
		if i > 0 {
			prev := a.free[i-1]
			if prev.off+prev.size > s.off {
				return fmt.Errorf("arena: overlapping free spans")
			}
			if prev.off+prev.size == s.off {
				return fmt.Errorf("arena: uncoalesced adjacent free spans at %d", s.off)
			}
		}
		freeBytes += s.size
	}
	var liveBytes uint64
	for off, sz := range a.live {
		if off+sz > a.size {
			return fmt.Errorf("arena: live allocation [%d,%d) out of bounds", off, off+sz)
		}
		for _, s := range a.free {
			if off < s.off+s.size && s.off < off+sz {
				return fmt.Errorf("arena: live allocation [%d,%d) overlaps free span [%d,%d)",
					off, off+sz, s.off, s.off+s.size)
			}
		}
		liveBytes += sz
	}
	if liveBytes != a.inUse {
		return fmt.Errorf("arena: inUse=%d but live bytes=%d", a.inUse, liveBytes)
	}
	if freeBytes+liveBytes != a.size {
		return fmt.Errorf("arena: free(%d)+live(%d) != size(%d)", freeBytes, liveBytes, a.size)
	}
	return nil
}

// Bump is an arena-buffer allocator over a byte slice: allocation is a
// pointer increment, individual frees are impossible, and Reset reclaims
// everything at once. This matches the paper's description of zero-copy
// arena objects ("fields are allocated from a stack, freeing or resizing a
// previously allocated field is difficult or impossible", Sec. II-B).
type Bump struct {
	buf []byte
	off int
}

// NewBump returns a bump allocator over buf.
func NewBump(buf []byte) *Bump {
	return &Bump{buf: buf}
}

// Alloc returns a zeroed slice of n bytes aligned to align within the
// backing buffer, plus its offset. Alignment is relative to the start of the
// backing buffer (offset 0 is aligned to any power of two).
func (b *Bump) Alloc(n, align int) ([]byte, int, error) {
	if n < 0 {
		return nil, 0, ErrInvalidSize
	}
	if align <= 0 || align&(align-1) != 0 {
		return nil, 0, ErrInvalidAlign
	}
	off := (b.off + align - 1) &^ (align - 1)
	if off+n > len(b.buf) {
		return nil, 0, fmt.Errorf("%w: need %d at %d, have %d", ErrOutOfMemory, n, off, len(b.buf))
	}
	s := b.buf[off : off+n : off+n]
	// The deserializer relies on zeroed storage for presence bits and
	// padding; reused blocks may hold stale bytes.
	clear(s)
	b.off = off + n
	return s, off, nil
}

// Used returns the number of bytes consumed (including alignment padding).
func (b *Bump) Used() int { return b.off }

// Cap returns the capacity of the backing buffer.
func (b *Bump) Cap() int { return len(b.buf) }

// Reset discards all allocations, retaining the backing buffer.
func (b *Bump) Reset() { b.off = 0 }

// Rebind discards all allocations and moves the allocator onto buf, so an
// owner can keep one Bump by value and reuse it.
func (b *Bump) Rebind(buf []byte) { b.buf, b.off = buf, 0 }

// Bytes returns the full backing buffer (used to transmit the built block).
func (b *Bump) Bytes() []byte { return b.buf }

package rpcrdma

import (
	"testing"
	"testing/quick"
	"time"
)

func TestIDPoolBasics(t *testing.T) {
	p := newIDPool()
	if p.Available() != IDPoolSize {
		t.Fatalf("initial available = %d", p.Available())
	}
	a, err := p.Alloc()
	if err != nil || a != 0 {
		t.Fatalf("first alloc = %d, %v", a, err)
	}
	b, _ := p.Alloc()
	if b != 1 {
		t.Fatalf("second alloc = %d", b)
	}
	p.Free(a)
	if p.Available() != IDPoolSize-1 {
		t.Error("availability accounting wrong")
	}
}

func TestIDPoolExhaustion(t *testing.T) {
	p := newIDPool()
	for i := 0; i < IDPoolSize; i++ {
		if _, err := p.Alloc(); err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
	}
	if _, err := p.Alloc(); err != ErrIDsExhausted {
		t.Fatalf("err = %v", err)
	}
	p.Free(42)
	id, err := p.Alloc()
	if err != nil || id != 42 {
		t.Fatalf("after free: %d, %v", id, err)
	}
}

// TestIDPoolDeterminism is the core Sec. IV-D property: two pools replaying
// the same interleaved alloc/free sequence produce identical IDs, so the
// client and server agree without ever transmitting them.
func TestIDPoolDeterminism(t *testing.T) {
	f := func(ops []uint8) bool {
		a, b := newIDPool(), newIDPool()
		var liveA, liveB []uint16
		for _, op := range ops {
			if op%3 != 0 || len(liveA) == 0 {
				x, errA := a.Alloc()
				y, errB := b.Alloc()
				if (errA == nil) != (errB == nil) {
					return false
				}
				if errA != nil {
					continue
				}
				if x != y {
					return false
				}
				liveA = append(liveA, x)
				liveB = append(liveB, y)
			} else {
				i := int(op) % len(liveA)
				a.Free(liveA[i])
				b.Free(liveB[i])
				liveA = append(liveA[:i], liveA[i+1:]...)
				liveB = append(liveB[:i], liveB[i+1:]...)
			}
		}
		return a.Available() == b.Available()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIDPoolFIFOOrder(t *testing.T) {
	p := newIDPool()
	for i := 0; i < 10; i++ {
		p.Alloc()
	}
	// Free 5, 3, 7: they must come back in that order after the pool wraps.
	p.Free(5)
	p.Free(3)
	p.Free(7)
	for i := 10; i < IDPoolSize; i++ {
		p.Alloc()
	}
	got := make([]uint16, 3)
	for i := range got {
		got[i], _ = p.Alloc()
	}
	if got[0] != 5 || got[1] != 3 || got[2] != 7 {
		t.Errorf("FIFO order violated: %v", got)
	}
}

// A client's per-ID tables start empty and grow, both in step, as the
// pool hands out never-used IDs, instead of covering all IDPoolSize IDs from
// set-up (512 KiB of continuations alone).
func TestClientIDTablesGrowWithBoundIDs(t *testing.T) {
	ccfg, scfg := smallCfg()
	ccfg.RequestTimeout = time.Minute
	r := newRig(t, ccfg, scfg, nil)
	c := r.client
	if len(c.conts) != 0 || len(c.idGen) != 0 {
		t.Fatalf("fresh connection: tables of %d/%d entries, want none", len(c.conts), len(c.idGen))
	}
	r.call(t, 300, 16) // binds IDs 0..299
	if n := len(c.conts); n != 512 || len(c.idGen) != n {
		t.Errorf("after 300 IDs: tables of %d/%d entries, want 512 each", len(c.conts), len(c.idGen))
	}
}

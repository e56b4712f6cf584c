package rpcrdma

import (
	"testing"

	"dpurpc/internal/trace"
)

// recycleRig is the BenchmarkEchoRoundTrip fixture with every optional
// per-message slice of a block switched on (trace handles), so all three
// parallel slices ride the free list.
func recycleRig(t *testing.T, tr *trace.Tracer) *testRig {
	t.Helper()
	ccfg := Config{BlockSize: 8192, Credits: 64, SBufSize: 1 << 22, CQDepth: 256, BusyPoll: true, Tracer: tr}
	scfg := Config{BlockSize: 8192, Credits: 64, SBufSize: 1 << 22, CQDepth: 256, BusyPoll: true, Tracer: tr}
	return newRig(t, ccfg, scfg, func(Request) ResponseSpec { return ResponseSpec{} })
}

// One message per block is what the event-driven poller produces at low
// load, so per-block state must cost nothing: after warm-up a whole echo
// round trip allocates nothing — no block, inBlock tracker, ID list or
// dispatch list on either endpoint, and no per-message handle (each side's
// Reservations live in their block's per-slot storage).
func TestSteadyStateBlocksDoNotAllocate(t *testing.T) {
	r := recycleRig(t, trace.New(trace.Config{}))
	cont := func(Response) {}
	roundTrip := func() {
		if err := r.client.Enqueue(CallSpec{Size: 64, OnResponse: cont}); err != nil {
			t.Fatal(err)
		}
		for r.client.Outstanding() > 0 {
			if _, err := r.client.Progress(); err != nil {
				t.Fatal(err)
			}
			if _, err := r.poller.Progress(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 200; i++ {
		roundTrip()
	}
	if a := testing.AllocsPerRun(500, roundTrip); a != 0 {
		t.Errorf("echo round trip: %v allocs, want 0 (per-block and per-slot state must allocate nothing)", a)
	}
	if n := r.client.Counters.BlocksSent; n < 700 {
		t.Fatalf("fixture sent %d blocks for 700 round trips: not one message per block", n)
	}
}

// A recycled block must be indistinguishable from a fresh one: nothing of its
// previous tenancy — continuations, trace handles, IDs, sequence or timing
// state — may be visible to the next, and a parked block must pin nothing.
func TestRecycledBlocksCarryNoPreviousState(t *testing.T) {
	tr := trace.New(trace.Config{})
	tr.Enable()
	r := recycleRig(t, tr)

	// Tenancy 1: three traced messages in one block.
	oldCalls := 0
	for i := 0; i < 3; i++ {
		err := r.client.Enqueue(CallSpec{Size: 32, Trace: tr.Begin("old"),
			OnResponse: func(Response) { oldCalls++ }})
		if err != nil {
			t.Fatal(err)
		}
	}
	first := r.client.cur
	r.pump(t)
	if oldCalls != 3 {
		t.Fatalf("tenancy 1: %d/3 continuations ran", oldCalls)
	}
	// Its acknowledgment rode the response block, so it is parked by now.
	if len(r.client.freeBlocks) != 1 || r.client.freeBlocks[0] != first {
		t.Fatalf("acknowledged block not on the free list (%d parked)", len(r.client.freeBlocks))
	}
	if first.off != 0 || first.buf != nil || first.used != 0 || first.pending != 0 ||
		first.seq != 0 || first.sealedAt != 0 ||
		len(first.conts) != 0 || len(first.trs) != 0 || len(first.ids) != 0 {
		t.Errorf("parked block keeps state: %+v", *first)
	}
	if cap(first.conts) < 3 || cap(first.trs) < 3 || cap(first.ids) < 3 {
		t.Fatalf("parked block lost its slices' capacity (%d/%d/%d): recycling buys nothing",
			cap(first.conts), cap(first.trs), cap(first.ids))
	}
	for i, c := range first.conts[:cap(first.conts)] {
		if c != nil {
			t.Errorf("parked block pins continuation %d", i)
		}
	}
	for i, a := range first.trs[:cap(first.trs)] {
		if a != nil {
			t.Errorf("parked block pins trace handle %d", i)
		}
	}
	// Poison what clearing cannot reach (the scalar slices keep their old
	// values beyond len) and make sure the next tenancy never reads it.
	for i := range first.ids[:cap(first.ids)] {
		first.ids[:cap(first.ids)][i] = 0xDEAD
	}

	// Tenancy 2: one untraced message reuses the struct.
	newCalls := 0
	if err := r.client.Enqueue(CallSpec{Size: 32, OnResponse: func(Response) { newCalls++ }}); err != nil {
		t.Fatal(err)
	}
	if r.client.cur != first {
		t.Fatal("second block did not reuse the parked struct")
	}
	if len(first.conts) != 1 || len(first.trs) != 1 || first.trs[0] != nil || len(first.ids) != 0 {
		t.Errorf("reused block: conts=%d trs=%v ids=%v", len(first.conts), first.trs, first.ids)
	}
	r.pump(t)
	if newCalls != 1 || oldCalls != 3 {
		t.Errorf("after reuse: new continuation ran %d times (want 1), old ones %d (want 3)", newCalls, oldCalls)
	}
	if got := r.client.Counters.RequestsSent; got != 4 {
		t.Errorf("requests sent = %d, want 4", got)
	}

	// Server side: the three-response block was freed by the acknowledgment
	// that rode tenancy 2's request block and reused for its one response.
	if len(r.server.unacked) != 1 {
		t.Fatalf("server has %d unacknowledged response blocks, want 1", len(r.server.unacked))
	}
	if rb := r.server.unacked[0]; rb.msgs != 1 || len(rb.ids) != 1 || rb.pending != 0 || cap(rb.ids) < 3 {
		t.Errorf("reused response block: msgs=%d ids=%v pending=%d cap=%d; want one fresh ID on the recycled struct",
			rb.msgs, rb.ids, rb.pending, cap(rb.ids))
	}
	if len(r.server.open) != 0 || len(r.server.reqBlockOf) != 0 {
		t.Errorf("server still tracks %d request blocks / %d IDs after every response left",
			len(r.server.open), len(r.server.reqBlockOf))
	}
	if n := len(r.server.freeOpen); n == 0 {
		t.Error("answered request-block states were not recycled")
	}
	for _, rb := range r.server.freeOpen {
		if rb.remaining != 0 {
			t.Errorf("parked request-block state has %d requests remaining", rb.remaining)
		}
	}
}

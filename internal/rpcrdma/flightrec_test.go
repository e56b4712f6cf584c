package rpcrdma

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dpurpc/internal/fault"
)

// Ring mechanics: bounded retention, oldest-first readout, wrap, and the
// nil-receiver disabled state.
func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder("c0", 8)
	for i := 0; i < 5; i++ {
		f.Record(FlightReserve, int64(i), 0)
	}
	evs := f.Events()
	if len(evs) != 5 {
		t.Fatalf("Events() len = %d, want 5", len(evs))
	}
	for i, e := range evs {
		if e.A != int64(i) || e.Kind != FlightReserve {
			t.Fatalf("event %d = %+v, want reserve a=%d", i, e, i)
		}
		if e.NS == 0 {
			t.Fatalf("event %d missing timestamp", i)
		}
	}
	// Overfill: only the last 8 survive, still oldest-first.
	for i := 5; i < 20; i++ {
		f.Record(FlightReserve, int64(i), 0)
	}
	evs = f.Events()
	if len(evs) != 8 {
		t.Fatalf("wrapped Events() len = %d, want 8", len(evs))
	}
	for i, e := range evs {
		if e.A != int64(12+i) {
			t.Fatalf("wrapped event %d: a=%d, want %d", i, e.A, 12+i)
		}
	}

	var nilF *FlightRecorder
	nilF.Record(FlightSend, 1, 2) // must not panic
	if nilF.Events() != nil {
		t.Fatal("nil recorder returned events")
	}
	if d := nilF.dump("x"); len(d.Events) != 0 || d.Conn != "" {
		t.Fatalf("nil recorder dump = %+v", d)
	}
}

// Event and dump rendering: kind-specific operand labels, seal reasons, and
// relative timestamps in the dump report.
func TestFlightEventStrings(t *testing.T) {
	cases := []struct {
		e    FlightEvent
		want string
	}{
		{FlightEvent{Kind: FlightReserve, A: 128, B: 3}, "reserve size=128 slot=3"},
		{FlightEvent{Kind: FlightSeal, A: int64(flushFull), B: 4}, "seal reason=full msgs=4"},
		{FlightEvent{Kind: FlightSend, A: 9, B: 512}, "send seq=9 n=512"},
		{FlightEvent{Kind: FlightSeqGap, A: 7, B: 5}, "SEQ-GAP got=7 want=5"},
		{FlightEvent{Kind: FlightTimeout, A: 42}, "TIMEOUT id=42"},
		{FlightEvent{Kind: FlightBroken}, "BROKEN a=0 b=0"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	f := NewFlightRecorder("conn3", 8)
	f.Record(FlightCommit, 64, 2)
	d := f.dump("request timeout (1 reaped)")
	s := d.String()
	for _, want := range []string{"conn=conn3", `reason="request timeout (1 reaped)"`, "events=1", "commit used=64 method=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("dump missing %q:\n%s", want, s)
		}
	}
}

// A healthy request flow leaves the full protocol story in the ring —
// reserve, commit, seal, send, recv — and fires no dump.
func TestFlightRecorderHealthyFlow(t *testing.T) {
	ccfg, scfg := faultCfgs()
	ccfg.FlightRecorder = 64
	ccfg.FlightLabel = "conn0"
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 10, 64)

	kinds := map[FlightKind]int{}
	for _, e := range r.client.FlightEvents() {
		kinds[e.Kind]++
	}
	for _, k := range []FlightKind{FlightReserve, FlightCommit, FlightSeal, FlightSend, FlightRecvBlock} {
		if kinds[k] == 0 {
			t.Errorf("no %s events recorded in a healthy flow (got %v)", k, kinds)
		}
	}
	if r.client.LastFlightDump() != nil {
		t.Fatal("healthy flow produced a flight dump")
	}
}

// A deadline reap triggers an automatic black-box dump whose event log
// contains the reaped request's protocol history, delivered both through
// LastFlightDump and the shared FlightSink.
func TestFlightRecorderDumpOnTimeout(t *testing.T) {
	ccfg, scfg := faultCfgs()
	ccfg.Faults = &fault.Plan{DropRate: 1, Seed: 1}
	ccfg.RequestTimeout = 20 * time.Millisecond
	ccfg.FlightRecorder = 64
	ccfg.FlightLabel = "chaos-conn"
	var sunk []FlightDump
	ccfg.FlightSink = func(d FlightDump) { sunk = append(sunk, d) }
	r := newRig(t, ccfg, scfg, nil)

	var got *Response
	if err := r.client.Enqueue(CallSpec{Size: 16, OnResponse: func(resp Response) {
		got = &resp
	}}); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got == nil && time.Now().Before(deadline) {
		if _, err := r.client.Progress(); err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	if got == nil || !errors.Is(got.LocalErr, ErrRequestTimeout) {
		t.Fatalf("request did not resolve as timeout: %+v", got)
	}

	d := r.client.LastFlightDump()
	if d == nil {
		t.Fatal("timeout fired no flight dump")
	}
	if d.Conn != "chaos-conn" || !strings.Contains(d.Reason, "request timeout") {
		t.Fatalf("dump conn=%q reason=%q", d.Conn, d.Reason)
	}
	// The failing request's whole protocol history must be in the box: it
	// was reserved, committed, sealed, and sent cleanly (the drop is on the
	// wire), then reaped.
	kinds := map[FlightKind]int{}
	for _, e := range d.Events {
		kinds[e.Kind]++
	}
	for _, k := range []FlightKind{FlightReserve, FlightCommit, FlightSeal, FlightSend, FlightTimeout} {
		if kinds[k] == 0 {
			t.Fatalf("dump missing %s event:\n%s", k, d)
		}
	}
	if len(sunk) == 0 {
		t.Fatal("FlightSink never called")
	}
	if sunk[0].Conn != "chaos-conn" {
		t.Fatalf("sink dump conn = %q", sunk[0].Conn)
	}
}

// Dumps are bounded per connection: a connection that keeps reaping only
// emits maxFlightDumps dumps into the sink.
func TestFlightRecorderDumpLimiter(t *testing.T) {
	ccfg, scfg := faultCfgs()
	ccfg.Faults = &fault.Plan{DropRate: 1, Seed: 3}
	ccfg.RequestTimeout = 5 * time.Millisecond
	ccfg.FlightRecorder = 32
	dumps := 0
	ccfg.FlightSink = func(FlightDump) { dumps++ }
	r := newRig(t, ccfg, scfg, nil)

	for round := 0; round < maxFlightDumps+4; round++ {
		resolved := false
		if err := r.client.Enqueue(CallSpec{Size: 16, OnResponse: func(Response) {
			resolved = true
		}}); err != nil {
			t.Fatal(err)
		}
		if err := r.client.Flush(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for !resolved && time.Now().Before(deadline) {
			if _, err := r.client.Progress(); err != nil {
				t.Fatalf("client: %v", err)
			}
		}
		if !resolved {
			t.Fatalf("round %d never resolved", round)
		}
	}
	if dumps != maxFlightDumps {
		t.Fatalf("sink saw %d dumps, want exactly %d", dumps, maxFlightDumps)
	}
}

// The per-pass connection gauges mirror event-loop state through atomics so
// the sampler can read them from another goroutine.
func TestConnGaugesRefresh(t *testing.T) {
	ccfg, scfg := faultCfgs()
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 10, 64)
	g := r.client.Gauges()
	if g.ArenaSize.Load() == 0 {
		t.Fatal("ArenaSize gauge never refreshed")
	}
	if got := g.Outstanding.Load(); got != 0 {
		t.Fatalf("Outstanding gauge = %d after drain, want 0", got)
	}
	if g.Credits.Load() <= 0 {
		t.Fatalf("Credits gauge = %d, want > 0", g.Credits.Load())
	}
}

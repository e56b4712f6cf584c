package rpcrdma

import (
	"fmt"
	"strings"
	"sync"
)

// Flight recorder: a bounded per-connection black-box ring of recent
// protocol events (reserves, commits, seals, sends, retries, seq-gaps,
// timeouts). It records nothing about payloads — just the protocol-state
// transitions that matter for a post-mortem — and it is dumped
// automatically when the connection's failure machinery fires (a typed
// error breaks the connection, or the deadline reaper times requests out),
// so every chaos failure is debuggable from the artifact alone.
//
// Cost model: disabled (Config.FlightRecorder == 0) is one nil check per
// hook. Enabled recording is owner-goroutine-only like the rest of
// ClientConn, but the ring takes a mutex anyway so dumps requested from
// other goroutines (LastDump, the chaos harness) are safe.

// FlightKind classifies one recorded protocol event.
type FlightKind uint8

const (
	FlightReserve     FlightKind = iota // a=payload size, b=slot index in block
	FlightCommit                        // a=bytes used, b=method
	FlightCancel                        // a=reserved size
	FlightSeal                          // a=flush reason, b=messages in block
	FlightSend                          // a=block seq, b=block bytes
	FlightSendRetry                     // a=block seq (post rejected by wire, rolled back)
	FlightAckOnly                       // a=acks carried
	FlightRecvBlock                     // a=block seq, b=messages
	FlightSeqGap                        // a=got seq, b=expected seq
	FlightTimeout                       // a=request ID reaped at deadline
	FlightBlockReap                     // a=messages reaped with an unsent block
	FlightLateResp                      // a=request ID of a dropped late response
	FlightCreditStall                   // a=queued blocks waiting
	FlightBroken                        // connection failed (dump follows)
)

var flightKindNames = [...]string{
	FlightReserve:     "reserve",
	FlightCommit:      "commit",
	FlightCancel:      "cancel",
	FlightSeal:        "seal",
	FlightSend:        "send",
	FlightSendRetry:   "send-retry",
	FlightAckOnly:     "ack-only",
	FlightRecvBlock:   "recv-block",
	FlightSeqGap:      "SEQ-GAP",
	FlightTimeout:     "TIMEOUT",
	FlightBlockReap:   "block-reap",
	FlightLateResp:    "late-resp",
	FlightCreditStall: "credit-stall",
	FlightBroken:      "BROKEN",
}

// String names the event kind.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// flightSealReasons maps flushReason values recorded in FlightSeal events.
var flightSealReasons = [...]string{
	flushExplicit: "explicit",
	flushFull:     "full",
}

// FlightEvent is one recorded protocol event. A and B carry kind-specific
// operands (see the FlightKind constants).
type FlightEvent struct {
	NS   int64 // absolute nanoseconds (process clock, comparable to spans)
	Kind FlightKind
	A, B int64
}

// String renders one event with its kind-specific operands.
func (e FlightEvent) String() string {
	switch e.Kind {
	case FlightReserve:
		return fmt.Sprintf("%s size=%d slot=%d", e.Kind, e.A, e.B)
	case FlightCommit:
		return fmt.Sprintf("%s used=%d method=%d", e.Kind, e.A, e.B)
	case FlightSeal:
		reason := "?"
		if int(e.A) < len(flightSealReasons) {
			reason = flightSealReasons[e.A]
		}
		return fmt.Sprintf("%s reason=%s msgs=%d", e.Kind, reason, e.B)
	case FlightSend, FlightRecvBlock:
		return fmt.Sprintf("%s seq=%d n=%d", e.Kind, e.A, e.B)
	case FlightSeqGap:
		return fmt.Sprintf("%s got=%d want=%d", e.Kind, e.A, e.B)
	case FlightTimeout, FlightLateResp:
		return fmt.Sprintf("%s id=%d", e.Kind, e.A)
	default:
		return fmt.Sprintf("%s a=%d b=%d", e.Kind, e.A, e.B)
	}
}

// FlightRecorder is the bounded event ring. A nil recorder is the disabled
// state: Record and Dump are no-ops.
type FlightRecorder struct {
	mu    sync.Mutex
	label string
	buf   []FlightEvent
	next  int
	full  bool
}

// NewFlightRecorder returns a ring retaining the last size events.
func NewFlightRecorder(label string, size int) *FlightRecorder {
	if size < 8 {
		size = 8
	}
	return &FlightRecorder{label: label, buf: make([]FlightEvent, size)}
}

// Record appends one event. Safe on a nil receiver.
func (f *FlightRecorder) Record(kind FlightKind, a, b int64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.next] = FlightEvent{NS: nowNS(), Kind: kind, A: a, B: b}
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.full = true
	}
	f.mu.Unlock()
}

// Events copies out the retained events, oldest first. Nil-safe.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.full {
		return append([]FlightEvent(nil), f.buf[:f.next]...)
	}
	out := make([]FlightEvent, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// FlightDump is one black-box snapshot, taken when a failure fired.
type FlightDump struct {
	Conn   string // connection label (Config.FlightLabel)
	Reason string // what triggered the dump
	AtNS   int64
	Events []FlightEvent // oldest first
}

// String renders the dump as a multi-line post-mortem report; event
// timestamps are shown relative to the dump instant.
func (d FlightDump) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "flight recorder dump conn=%s reason=%q events=%d\n",
		d.Conn, d.Reason, len(d.Events))
	for _, e := range d.Events {
		fmt.Fprintf(&sb, "  %+8.1fus %s\n", float64(e.NS-d.AtNS)/1e3, e)
	}
	return sb.String()
}

// dump snapshots the ring into a FlightDump. Nil-safe (returns a zero
// dump).
func (f *FlightRecorder) dump(reason string) FlightDump {
	d := FlightDump{Reason: reason, AtNS: nowNS(), Events: f.Events()}
	if f != nil {
		d.Conn = f.label
	}
	return d
}

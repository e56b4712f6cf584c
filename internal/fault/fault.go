// Package fault provides deterministic, seedable fault injection for the
// simulated RDMA substrate. The real system the paper measures runs on
// BlueField-3 hardware where completions carry error status, DMAs are lost
// on device resets, and completion queues overflow; this package lets
// the simulation reproduce those conditions on demand so the recovery
// surface of the datapath (internal/rpcrdma, internal/offload) can be
// tested instead of merely written.
//
// A Plan describes fault probabilities for one direction of one queue pair;
// an Injector evaluates the plan with a Mersenne Twister stream so a given
// seed always produces the same fault schedule.
// The zero Plan injects nothing, and a nil *Injector is a valid no-op:
// every method is nil-safe, so the hot path in internal/rdma pays a single
// pointer test when injection is disabled.
package fault

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpurpc/internal/mt19937"
)

// Action is the outcome of one injection decision.
type Action uint8

// Injection outcomes, in decision-priority order.
const (
	// None performs the operation normally.
	None Action = iota
	// Fail rejects the post synchronously with a typed error before any
	// bytes move — modelling ibv_post_send failures and local QP errors.
	// No completion is generated on either side.
	Fail
	// Drop completes the post on the sender but never delivers bytes or a
	// completion to the receiver — modelling a lost DMA. This is the fault
	// the protocol's sequence-gap detection exists to catch.
	Drop
	// Delay delivers the operation intact but late. Ordering relative to
	// other operations on the same QP is preserved (reliable connections
	// deliver in order even when slow).
	Delay
	// Overflow poisons the receiver's completion queue, reproducing the
	// sticky CQ-overflow failure mode of Sec. III-C.
	Overflow
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Fail:
		return "fail"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Overflow:
		return "overflow"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Plan configures fault probabilities for one injection point. Rates are
// independent probabilities evaluated in the order Fail, Drop, Delay,
// Overflow against a single uniform draw, so their sum must not exceed 1.
// The zero Plan is valid and injects nothing.
type Plan struct {
	// ErrorRate is the probability a post fails synchronously with a typed
	// error (Action Fail).
	ErrorRate float64
	// DropRate is the probability a delivery is silently lost (Action
	// Drop).
	DropRate float64
	// DelayRate is the probability a delivery is deferred by Delay (Action
	// Delay).
	DelayRate float64
	// Delay is how long a delayed delivery waits before landing.
	Delay time.Duration
	// OverflowRate is the probability a post poisons the receiver's CQ
	// (Action Overflow). Overflow is sticky and connection-fatal; keep
	// this rate far below the others.
	OverflowRate float64
	// Seed seeds the Mersenne Twister stream. Zero selects
	// mt19937.DefaultSeed so distinct zero-seed plans still inject, but
	// chaos runs should pick explicit seeds for reproducibility.
	Seed uint32
}

// String returns a compact rate summary ("err5%+delay10%(200µs) seed=3"),
// usable as a subtest or experiment label.
func (p Plan) String() string {
	var b strings.Builder
	part := func(name string, rate float64, d time.Duration) {
		if rate <= 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%s%g%%", name, rate*100)
		if d > 0 {
			fmt.Fprintf(&b, "(%v)", d)
		}
	}
	part("err", p.ErrorRate, 0)
	part("drop", p.DropRate, 0)
	part("delay", p.DelayRate, p.Delay)
	part("overflow", p.OverflowRate, 0)
	if b.Len() == 0 {
		b.WriteString("none")
	}
	fmt.Fprintf(&b, " seed=%d", p.Seed)
	return b.String()
}

// Enabled reports whether the plan can ever inject a fault.
func (p Plan) Enabled() bool {
	return p.ErrorRate > 0 || p.DropRate > 0 || p.DelayRate > 0 ||
		p.OverflowRate > 0
}

// Stats counts injection decisions. Counters are cumulative and
// monotonically increasing.
type Stats struct {
	Decisions uint64 // total Decide calls
	Fails     uint64
	Drops     uint64
	Delays    uint64
	Overflows uint64
}

// Injector evaluates a Plan deterministically. All methods are safe for
// concurrent use and nil-safe (a nil Injector never injects).
type Injector struct {
	plan Plan

	mu  sync.Mutex
	rng *mt19937.Source

	decisions atomic.Uint64
	fails     atomic.Uint64
	drops     atomic.Uint64
	delays    atomic.Uint64
	overflows atomic.Uint64
}

// New returns an injector for plan, or nil when the plan injects nothing —
// callers can install the result unconditionally and rely on nil-safety.
func New(plan Plan) *Injector {
	if !plan.Enabled() {
		return nil
	}
	seed := plan.Seed
	if seed == 0 {
		seed = mt19937.DefaultSeed
	}
	return &Injector{plan: plan, rng: mt19937.New(seed)}
}

// Plan returns the plan the injector was built from (zero Plan when nil).
func (i *Injector) Plan() Plan {
	if i == nil {
		return Plan{}
	}
	return i.plan
}

// Decide draws one fault decision for a posted operation and returns the
// action plus, for Delay, how long to defer delivery.
func (i *Injector) Decide() (Action, time.Duration) {
	if i == nil {
		return None, 0
	}
	i.mu.Lock()
	u := i.rng.Float64()
	i.mu.Unlock()
	i.decisions.Add(1)
	p := &i.plan
	switch {
	case u < p.ErrorRate:
		i.fails.Add(1)
		return Fail, 0
	case u < p.ErrorRate+p.DropRate:
		i.drops.Add(1)
		return Drop, 0
	case u < p.ErrorRate+p.DropRate+p.DelayRate:
		i.delays.Add(1)
		return Delay, p.Delay
	case u < p.ErrorRate+p.DropRate+p.DelayRate+p.OverflowRate:
		i.overflows.Add(1)
		return Overflow, 0
	}
	return None, 0
}

// Stats returns a snapshot of the injection counters (zero Stats when nil).
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return Stats{
		Decisions: i.decisions.Load(),
		Fails:     i.fails.Load(),
		Drops:     i.drops.Load(),
		Delays:    i.delays.Load(),
		Overflows: i.overflows.Load(),
	}
}

package fault

import (
	"testing"
	"time"
)

func TestZeroPlanDisabled(t *testing.T) {
	if (Plan{}).Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	if inj := New(Plan{}); inj != nil {
		t.Fatal("New(zero plan) should return nil")
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var inj *Injector
	for i := 0; i < 100; i++ {
		if a, d := inj.Decide(); a != None || d != 0 {
			t.Fatalf("nil injector decided %v/%v", a, d)
		}
	}
	if s := inj.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector stats %+v", s)
	}
	if p := inj.Plan(); p != (Plan{}) {
		t.Fatalf("nil injector plan %+v", p)
	}
}

// Two injectors built from the same plan must produce identical fault
// schedules: determinism is what makes chaos runs reproducible.
func TestDeterministicSchedule(t *testing.T) {
	plan := Plan{ErrorRate: 0.05, DropRate: 0.05, DelayRate: 0.1,
		Delay: time.Millisecond, OverflowRate: 0.01, Seed: 42}
	a := New(plan)
	b := New(plan)
	for i := 0; i < 10000; i++ {
		aa, ad := a.Decide()
		ba, bd := b.Decide()
		if aa != ba || ad != bd {
			t.Fatalf("decision %d diverged: %v/%v vs %v/%v", i, aa, ad, ba, bd)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// Observed fault frequencies must track the configured rates.
func TestRates(t *testing.T) {
	const n = 200000
	plan := Plan{ErrorRate: 0.02, DropRate: 0.03, DelayRate: 0.05,
		Delay: time.Millisecond, Seed: 7}
	inj := New(plan)
	for i := 0; i < n; i++ {
		inj.Decide()
	}
	s := inj.Stats()
	if s.Decisions != n {
		t.Fatalf("decisions = %d, want %d", s.Decisions, n)
	}
	check := func(name string, got uint64, rate float64) {
		t.Helper()
		want := rate * n
		if f := float64(got); f < 0.8*want || f > 1.2*want {
			t.Errorf("%s = %d, want ~%.0f", name, got, want)
		}
	}
	check("fails", s.Fails, plan.ErrorRate)
	check("drops", s.Drops, plan.DropRate)
	check("delays", s.Delays, plan.DelayRate)
	if s.Overflows != 0 {
		t.Errorf("overflows = %d with zero OverflowRate", s.Overflows)
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[Action]string{
		None: "none", Fail: "fail", Drop: "drop", Delay: "delay",
		Overflow: "overflow", Action(99): "action(99)",
	} {
		if got := a.String(); got != want {
			t.Errorf("Action(%d).String() = %q, want %q", a, got, want)
		}
	}
}

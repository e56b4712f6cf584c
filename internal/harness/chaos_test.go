package harness

import "testing"

// TestRunChaosResolvesEverything pins the chaos sweep's contract: a
// fault-free control point with zero failures, and a faulty point where
// every call still resolves (OK or typed) and the injector actually fired.
func TestRunChaosResolvesEverything(t *testing.T) {
	opts := DefaultOptions()
	opts.Requests = 200
	opts.ServerCfg.HostWorkers = 2
	rows, err := RunChaos(opts, []float64{0, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	control := rows[0]
	if control.Failed != 0 || control.Succeeded != uint64(control.Requests) {
		t.Errorf("control point: %d ok, %d failed of %d",
			control.Succeeded, control.Failed, control.Requests)
	}
	if control.Injected.Decisions != 0 {
		t.Errorf("control point consulted the injector %d times", control.Injected.Decisions)
	}
	if control.FlightDumps != 0 {
		t.Errorf("control point emitted %d flight dumps (teardown noise?)", control.FlightDumps)
	}
	faulty := rows[1]
	if got := faulty.Succeeded + faulty.Failed; got != uint64(faulty.Requests) {
		t.Errorf("faulty point resolved %d of %d calls", got, faulty.Requests)
	}
	if faulty.Injected.Decisions == 0 {
		t.Error("faulty point never consulted the injector")
	}
	if faulty.Succeeded == 0 {
		t.Error("no call succeeded at 5% faults")
	}
	// Timeouts and connection breaks auto-dump the flight recorder; a 5%
	// point that saw either must carry at least one black-box post-mortem.
	if faulty.TimedOut > 0 || faulty.ConnsBroken > 0 {
		if faulty.FlightDumps == 0 {
			t.Errorf("faulty point reaped %d and broke %d conns but emitted no flight dump",
				faulty.TimedOut, faulty.ConnsBroken)
		}
		if faulty.DumpSample == "" {
			t.Error("flight dumps emitted but no sample captured")
		}
	}
}

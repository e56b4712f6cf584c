package dpu

import (
	"math"
	"testing"
)

func TestAnalyzeHostBound(t *testing.T) {
	m := Default()
	// 1e6 requests, 88.75ns each on the host, tiny elsewhere.
	u := Usage{Requests: 1e6, HostNS: 88.75e6, DPUNS: 1e6, LinkBytes: 1000}
	r := m.Analyze(u)
	if r.Bottleneck != "host-cpu" {
		t.Fatalf("bottleneck = %s", r.Bottleneck)
	}
	wantRPS := 8.0 / 88.75e-9
	if math.Abs(r.RPS-wantRPS)/wantRPS > 1e-9 {
		t.Errorf("RPS = %g want %g", r.RPS, wantRPS)
	}
	if math.Abs(r.HostCores-8) > 1e-9 {
		t.Errorf("host cores = %g, want saturation at 8", r.HostCores)
	}
	if r.DPUCores >= 1 {
		t.Errorf("dpu cores = %g", r.DPUCores)
	}
}

func TestAnalyzeDPUBound(t *testing.T) {
	m := Default()
	u := Usage{Requests: 1e6, HostNS: 1e6, DPUNS: 200e6, LinkBytes: 1000}
	r := m.Analyze(u)
	if r.Bottleneck != "dpu-cpu" {
		t.Fatalf("bottleneck = %s", r.Bottleneck)
	}
	if math.Abs(r.DPUCores-16) > 1e-9 {
		t.Errorf("dpu cores = %g, want 16", r.DPUCores)
	}
}

func TestAnalyzeWorkerCap(t *testing.T) {
	m := Default()
	// Host-bound run with only 2 duplex workers: the same aggregate host
	// core-time must stretch over 2 cores, not 8 — a 4x longer run.
	base := Usage{Requests: 1e6, HostNS: 200e6, DPUNS: 1e6, LinkBytes: 1000}
	capped := base
	capped.HostWorkers = 2
	full := m.Analyze(base)
	r := m.Analyze(capped)
	if r.Bottleneck != "host-cpu" {
		t.Fatalf("bottleneck = %s", r.Bottleneck)
	}
	if math.Abs(r.SimSeconds-4*full.SimSeconds)/full.SimSeconds > 1e-9 {
		t.Errorf("capped run %gs, want 4x the even-spread %gs", r.SimSeconds, full.SimSeconds)
	}
	if math.Abs(r.HostCores-2) > 1e-9 {
		t.Errorf("host cores = %g, want saturation at the 2 workers", r.HostCores)
	}
	// Worker counts at or beyond the platform collapse to the ideal spread,
	// as does the zero value.
	for _, w := range []int{0, 8, 64} {
		u := base
		u.HostWorkers = w
		if got := m.Analyze(u); got != full {
			t.Errorf("HostWorkers=%d result %+v != even spread %+v", w, got, full)
		}
	}
}

func TestAnalyzePCIeBound(t *testing.T) {
	m := Default()
	// 1 GB over a 200 Gb/s link takes 40ms; make core time smaller.
	u := Usage{Requests: 1e5, HostNS: 1e6, DPUNS: 1e6, LinkBytes: 1 << 30}
	r := m.Analyze(u)
	if r.Bottleneck != "pcie" {
		t.Fatalf("bottleneck = %s", r.Bottleneck)
	}
	if math.Abs(r.BandwidthGbps-m.LinkBandwidthGbps) > 1e-6 {
		t.Errorf("bandwidth = %g, want saturation at %g", r.BandwidthGbps, m.LinkBandwidthGbps)
	}
}

func TestAnalyzeConsistency(t *testing.T) {
	m := Default()
	u := Usage{Requests: 12345, HostNS: 5e6, DPUNS: 9e6, LinkBytes: 1 << 20}
	r := m.Analyze(u)
	// RPS * SimSeconds == Requests.
	if got := r.RPS * r.SimSeconds; math.Abs(got-float64(u.Requests)) > 1e-6 {
		t.Errorf("RPS*T = %g want %d", got, u.Requests)
	}
	// Core counts never exceed the machine.
	if r.HostCores > float64(m.Host.Cores)+1e-9 || r.DPUCores > float64(m.DPU.Cores)+1e-9 {
		t.Error("core usage exceeds machine size")
	}
	if r.BandwidthGbps > m.LinkBandwidthGbps+1e-9 {
		t.Error("bandwidth exceeds link capacity")
	}
}

func TestAnalyzeIdle(t *testing.T) {
	r := Default().Analyze(Usage{Requests: 5})
	if r.Bottleneck != "idle" || r.RPS != 0 {
		t.Errorf("idle analysis = %+v", r)
	}
}

func TestDefaultMachineShape(t *testing.T) {
	m := Default()
	if m.Host.Cores != 8 || m.DPU.Cores != 16 {
		t.Error("Table I core counts wrong")
	}
	if m.LinkBandwidthGbps != 200 {
		t.Errorf("link bandwidth = %g", m.LinkBandwidthGbps)
	}
}

package cpumodel

import (
	"math"
	"testing"

	"dpurpc/internal/deser"
)

// approx reports whether got is within tol (fractional) of want.
func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

func TestFig7IntArrayAnchor(t *testing.T) {
	// Fig. 7: host deserializes the int array at ~2.75 ns/element in the
	// linear regime. Under the uniform-shift distribution an element costs
	// ~2.67 varint bytes on average (measured in workload's tests).
	host := HostX86()
	n := float64(4096)
	stats := deser.Stats{
		VarintBytes: uint64(2.67*n) + 3, // elements + tag/len framing
		Messages:    1,
		Fields:      1,
	}
	perElem := host.DeserNS(stats) / n
	if !approx(perElem, 2.75, 0.05) {
		t.Errorf("host int array = %.3f ns/elem, paper says 2.75", perElem)
	}
	dpu := DPUBlueField3()
	ratio := dpu.DeserNS(stats) / host.DeserNS(stats)
	if !approx(ratio, 1.89, 0.05) {
		t.Errorf("DPU/host int ratio = %.3f, paper says 1.89", ratio)
	}
}

func TestFig7CharArrayAnchor(t *testing.T) {
	// Fig. 7: ~42.5 ns per 1024 char elements on the host; DPU 2.51x.
	host := HostX86()
	const n = 1 << 20
	stats := deser.Stats{
		CopyBytes:   n,
		UTF8Bytes:   n,
		VarintBytes: 4,
		Messages:    1,
		Fields:      1,
	}
	per1024 := host.DeserNS(stats) / n * 1024
	if !approx(per1024, 42.5, 0.05) {
		t.Errorf("host char array = %.2f ns/KiB, paper says 42.5", per1024)
	}
	dpu := DPUBlueField3()
	ratio := dpu.DeserNS(stats) / host.DeserNS(stats)
	if !approx(ratio, 2.51, 0.05) {
		t.Errorf("DPU/host char ratio = %.3f, paper says 2.51", ratio)
	}
}

func TestTableICoreCounts(t *testing.T) {
	if HostX86().Cores != 8 {
		t.Error("host threads != 8 (Table I)")
	}
	if DPUBlueField3().Cores != 16 {
		t.Error("DPU cores != 16 (Table I)")
	}
}

func TestTwoDPUCoresReplaceOneHostCore(t *testing.T) {
	// The paper's headline sizing rule. Check across both workload types:
	// the per-core slowdown is <= 2.51x and >= 1.89x, and with 16 DPU cores
	// vs 8 host threads the aggregate throughput ratio is within ~30% of
	// parity for the varint workload.
	host, dpu := HostX86(), DPUBlueField3()
	ints := deser.Stats{VarintBytes: 360, Messages: 1, Fields: 1}
	hostAgg := float64(host.Cores) / host.DeserNS(ints)
	dpuAgg := float64(dpu.Cores) / dpu.DeserNS(ints)
	if r := dpuAgg / hostAgg; r < 0.8 || r > 1.4 {
		t.Errorf("aggregate DPU/host throughput ratio = %.2f, want near parity", r)
	}
}

func TestSerializeNS(t *testing.T) {
	host := HostX86()
	if host.SerializeNS(0, 0, 0) != 0 {
		t.Error("zero serialize cost wrong")
	}
	if host.SerializeNS(100, 2, 1) <= 0 {
		t.Error("serialize cost not positive")
	}
}

func TestBlockCostCachePenalty(t *testing.T) {
	// Sec. IV-E/VI-A: blocks at or below the cache-friendly size pay only
	// the fixed cost; larger blocks pay per excess byte, which creates the
	// 8 KiB optimum of the sweep.
	for _, p := range []*Platform{HostX86(), DPUBlueField3()} {
		fixed := p.BlockNS + p.DoorbellNS // per-block bookkeeping + one doorbell
		base := p.BlockCostNS(SweetBlockBytes)
		if base != fixed {
			t.Errorf("%s: cost at sweet size = %g, want %g", p.Name, base, fixed)
		}
		if got := p.BlockCostNS(1024); got != fixed {
			t.Errorf("%s: small block penalized", p.Name)
		}
		double := p.BlockCostNS(2 * SweetBlockBytes)
		want := fixed + p.CacheByteNS*SweetBlockBytes
		if double != want {
			t.Errorf("%s: cost at 2x sweet = %g, want %g", p.Name, double, want)
		}
		// The penalty must be strong enough that growing past the sweet
		// size raises the per-message share (the sweep's right edge):
		// d/dS of (fixed + C*(S-8K))/S > 0 requires C*8K > fixed.
		if p.CacheByteNS*SweetBlockBytes <= fixed {
			t.Errorf("%s: cache penalty too weak for an interior optimum", p.Name)
		}
		if p.DoorbellNS <= 0 {
			t.Errorf("%s: doorbell cost must be positive", p.Name)
		}
	}
}

func TestPlatformNamesAndWakeup(t *testing.T) {
	h, d := HostX86(), DPUBlueField3()
	if h.Name == d.Name || h.Name == "" {
		t.Error("platform names wrong")
	}
	if h.WakeupNS <= 0 || d.WakeupNS <= 0 {
		t.Error("wakeup costs must be positive")
	}
	if d.ReqNS <= h.ReqNS || d.BlockNS <= h.BlockNS {
		t.Error("DPU per-core stack costs should exceed the host's")
	}
}

func TestDeserNSCountsEveryTerm(t *testing.T) {
	p := &Platform{
		VarintByteNS: 1, FixedByteNS: 2, CopyByteNS: 4, UTF8ByteNS: 8,
		FieldNS: 16, MessageNS: 32,
	}
	s := deser.Stats{VarintBytes: 1, FixedBytes: 1, CopyBytes: 1, UTF8Bytes: 1, Fields: 1, Messages: 1}
	if got := p.DeserNS(s); got != 63 {
		t.Errorf("DeserNS = %v want 63", got)
	}
}

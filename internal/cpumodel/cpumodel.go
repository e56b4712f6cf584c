// Package cpumodel provides per-platform cost models for the two processors
// in the paper's testbed: the host's x86 cores (Xeon Gold 6430) and the
// DPU's ARM cores (BlueField-3, Cortex-A78).
//
// This is the substitution for the physical hardware (see DESIGN.md): the
// datapath executes the real deserialization code and counts its operations
// (internal/deser.Stats); the model converts those counts into nanoseconds
// of simulated core time. The constants are calibrated so the model
// reproduces the paper's published anchors:
//
//   - Fig. 7 host tails: ~2.75 ns per int-array element (the uniform-shift
//     distribution averages ~2.67 varint bytes/element) and ~42.5 ns per
//     1024 char-array elements;
//   - DPU/host ratios of 1.89x (varint decoding) and 2.51x (byte copy +
//     UTF-8 validation, where the host's SIMD units help most);
//   - the ~9x10^7 requests/s small-message ceiling of Fig. 8a with 8 host
//     threads and the 1.8x / 8.0x / 1.53x host CPU reductions of Fig. 8c.
package cpumodel

import (
	"dpurpc/internal/deser"
)

// Platform models one processor type.
type Platform struct {
	// Name identifies the platform in reports.
	Name string
	// Cores is the number of cores available to the RPC stack
	// (Table I: 16 DPU cores, 8 host threads).
	Cores int

	// Deserialization cost coefficients (ns per unit).
	VarintByteNS float64 // per varint byte decoded
	FixedByteNS  float64 // per fixed32/64 byte decoded
	CopyByteNS   float64 // per payload byte copied
	UTF8ByteNS   float64 // per byte of UTF-8 validation
	// ReplayByteNS is the per-byte cost of replaying pre-decoded parse
	// notes during the planned fill pass (sequential stores from the scan's
	// scratch, no wire re-decoding) — priced like a copy, not a decode.
	ReplayByteNS float64
	// PayloadRefNS is the per-byte cost of carrying a payload as a
	// scatter-gather segment reference instead of copying it through the
	// object arena: one bulk memcpy into the 8-aligned segment area at
	// streaming-store bandwidth, no second touch at fill time. Roughly 5x
	// cheaper than CopyByteNS — the term the payloadscale experiment sweeps.
	PayloadRefNS float64
	FieldNS      float64 // per decoded field value (dispatch)
	MessageNS    float64 // per message object (arena alloc + default copy)

	// Serialization cost coefficients (response path).
	SerByteNS    float64 // per byte emitted
	SerFieldNS   float64 // per field emitted
	SerMessageNS float64 // per message walked

	// RPC stack costs.
	ReqNS     float64 // per request: full server stack (xRPC termination, dispatch)
	RDMAReqNS float64 // per request: RPC-over-RDMA server side (callback dispatch, response build, ack bookkeeping)
	BlockNS   float64 // per block: poll, preamble handling, allocator work
	// DoorbellNS is the fixed cost of ringing one doorbell: the MMIO
	// write and commit barrier of posting an RDMA write-with-immediate.
	// It is charged per block, not per message, so commit coalescing
	// (many messages per doorbell) amortizes exactly this term — the
	// fixed cost the batchscale experiment sweeps.
	DoorbellNS float64
	NetByteNS  float64 // per TCP byte moved through the terminating side's socket stack
	// WakeupNS is the extra per-block cost of the blocking poll() path
	// versus busy polling (Sec. III-C: busy polling is ~10% faster at the
	// cost of 100% CPU).
	WakeupNS float64
	// CacheByteNS is the extra per-byte cost of touching block bytes beyond
	// the cache-friendly block size (SweetBlockBytes); it reproduces the
	// 8 KiB optimum of the paper's block-size sweep (Sec. VI-A).
	CacheByteNS float64

	// Response-cache costs (internal/rpccache, probed on the terminating
	// side). RespCacheProbeNS is the fixed per-probe cost — bucket index,
	// chain walk, segment bookkeeping (calibrated against the measured
	// ~80 ns zero-alloc hit on the reference core); RespCacheHashByteNS is
	// the per-byte cost of the FNV-1a pass plus the key compare over the
	// raw request bytes.
	RespCacheProbeNS    float64
	RespCacheHashByteNS float64
}

// EffectiveCores caps the platform's core count at the configured worker
// count: a deployment running w pipeline workers per connection can spread
// that platform's work over at most w cores (w <= 0 or >= Cores means the
// full platform, the paper's ideal even spread). Both directions use it —
// DPU deserialization/serialization workers and host duplex response
// workers.
func (p *Platform) EffectiveCores(workers int) int {
	if workers <= 0 || workers >= p.Cores {
		return p.Cores
	}
	return workers
}

// SweetBlockBytes is the cache-friendly block size; blocks beyond it pay
// CacheByteNS for the excess bytes (Sec. IV-E: block sizes are chosen so
// "cache performance due to the data locality is not reduced").
const SweetBlockBytes = 8 * 1024

// HostX86 returns the host model (2x Xeon Gold 6430 in Table I; 8 worker
// threads by configuration).
func HostX86() *Platform {
	return &Platform{
		Name:  "host-x86",
		Cores: 8,

		// The paper's byte-at-a-time host decoder (Fig. 7), not this
		// repository's: traced ints_decode runs on a 2-vCPU Xeon read
		// deser.scan_ns / deser.varint_bytes_per_req at 0.29-0.41 ns per
		// byte with the AVX-512 VBMI2 packed-varint kernel, 0.56-0.76
		// with the BMI2 kernel and 2.3-2.4 with the portable Go block
		// loop. The paper's ratio is kept; the gap is named in DESIGN.md
		// §9, not rescaled away.
		VarintByteNS: 1.03,
		FixedByteNS:  0.0215,
		CopyByteNS:   0.0215,
		UTF8ByteNS:   0.020, // SIMD-validated on x86
		ReplayByteNS: 0.0215,
		PayloadRefNS: 0.004,
		FieldNS:      2.4,
		MessageNS:    22.0,

		SerByteNS:    0.03,
		SerFieldNS:   2.0,
		SerMessageNS: 15.0,

		ReqNS:       42.0,
		RDMAReqNS:   48.0,
		BlockNS:     250.0,
		DoorbellNS:  150.0,
		NetByteNS:   0.05,
		WakeupNS:    800.0,
		CacheByteNS: 0.12,

		RespCacheProbeNS:    40.0,
		RespCacheHashByteNS: 0.5,
	}
}

// DPUBlueField3 returns the DPU model (16x Cortex-A78). Per-core it is
// 1.89x slower at varint decoding and 2.51x slower at copy/UTF-8 work than
// the host (Fig. 7), so "two DPU cores replace one CPU core".
func DPUBlueField3() *Platform {
	return &Platform{
		Name:  "dpu-bluefield3",
		Cores: 16,

		VarintByteNS: 1.03 * 1.89,
		FixedByteNS:  0.042,
		CopyByteNS:   0.042,
		UTF8ByteNS:   0.062, // no wide SIMD: validation suffers most
		ReplayByteNS: 0.042,
		PayloadRefNS: 0.008,
		FieldNS:      4.8,
		MessageNS:    44.0,

		SerByteNS:    0.06,
		SerFieldNS:   4.0,
		SerMessageNS: 30.0,

		ReqNS:       84.0,
		RDMAReqNS:   96.0,
		BlockNS:     500.0,
		DoorbellNS:  300.0,
		NetByteNS:   0.10,
		WakeupNS:    2000.0,
		CacheByteNS: 0.25,

		RespCacheProbeNS:    80.0,
		RespCacheHashByteNS: 1.0,
	}
}

// BlockCostNS returns the per-block cost — per-block bookkeeping plus one
// doorbell — including the cache-spill penalty for blocks beyond
// SweetBlockBytes. The doorbell term is fixed per block regardless of how
// many messages it carries, which is why commit coalescing pays off for
// small messages: batch N of them and the doorbell costs DoorbellNS/N each.
func (p *Platform) BlockCostNS(blockBytes int) float64 {
	cost := p.BlockNS + p.DoorbellNS
	if blockBytes > SweetBlockBytes {
		cost += p.CacheByteNS * float64(blockBytes-SweetBlockBytes)
	}
	return cost
}

// DeserNS converts deserialization operation counts into nanoseconds of
// core time on this platform. Interpretive decodes report zero
// ReplayedBytes; planned decodes charge the fill pass's note replay at
// copy-like cost (the wire bytes were already decoded once during the scan
// and appear in the VarintBytes/FixedBytes/UTF8Bytes terms).
func (p *Platform) DeserNS(s deser.Stats) float64 {
	return p.VarintByteNS*float64(s.VarintBytes) +
		p.FixedByteNS*float64(s.FixedBytes) +
		p.CopyByteNS*float64(s.CopyBytes) +
		p.UTF8ByteNS*float64(s.UTF8Bytes) +
		p.ReplayByteNS*float64(s.ReplayedBytes) +
		p.PayloadRefNS*float64(s.RefBytes) +
		p.FieldNS*float64(s.Fields) +
		p.MessageNS*float64(s.Messages)
}

// RespCacheProbeCost returns the core time of one response-cache probe over
// a request of the given size: the fixed lookup plus the hash-and-compare
// pass over the raw request bytes. Hits and misses cost the same probe —
// a hit then skips the entire deserialization and RPC stack, which is
// where the saving comes from.
func (p *Platform) RespCacheProbeCost(reqBytes int) float64 {
	return p.RespCacheProbeNS + p.RespCacheHashByteNS*float64(reqBytes)
}

// SerializeNS models the cost of serializing an object with the given
// emitted byte count, field count, and message count.
func (p *Platform) SerializeNS(bytes, fields, messages int) float64 {
	return p.SerByteNS*float64(bytes) +
		p.SerFieldNS*float64(fields) +
		p.SerMessageNS*float64(messages)
}

// Ledger accumulates simulated core time for one platform. Callers charge
// nanoseconds as work is performed; TotalNS and Cores feed the bottleneck
// analysis in internal/dpu.
type Ledger struct {
	Platform *Platform
	totalNS  float64
}

// NewLedger returns a ledger for p.
func NewLedger(p *Platform) *Ledger { return &Ledger{Platform: p} }

// Charge adds ns nanoseconds of core time.
func (l *Ledger) Charge(ns float64) { l.totalNS += ns }

// ChargeDeser charges the platform cost of the given deserialization stats.
func (l *Ledger) ChargeDeser(s deser.Stats) { l.totalNS += l.Platform.DeserNS(s) }

// TotalNS returns the accumulated core time.
func (l *Ledger) TotalNS() float64 { return l.totalNS }

// Reset zeroes the ledger.
func (l *Ledger) Reset() { l.totalNS = 0 }

// CoreSeconds returns total core time in seconds.
func (l *Ledger) CoreSeconds() float64 { return l.totalNS / 1e9 }

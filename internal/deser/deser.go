// Package deser implements the paper's custom protobuf deserializer
// (Sec. V): it decodes wire bytes *directly into the shared-ABI object
// layout* inside an arena block, so the receiver of the block (the host)
// gets a ready-to-use object with zero further work.
//
// There is one decoder (plan.go): Scan (or ScanWithin) validates the wire
// bytes and sizes the object exactly, then Fill — or FillSG with Segments
// for scatter-gather payloads — builds it. The DPU and the baseline server
// both run it. The package's tests keep an interpretive decoder as the
// reference it is checked against byte for byte (oracle_test.go).
//
// Differences from the standard deserializer (internal/protomsg.Unmarshal):
//
//   - All storage comes from a bump arena inside the block being sent; the
//     system allocator is never touched (Sec. VI-C5's zero-LLC-miss
//     property).
//   - Strings are crafted in place with the libstdc++ SSO layout (Fig. 6),
//     including the self-referential data pointer for small strings.
//   - References are region-relative offsets, valid on both sides of the
//     shared address space without a fix-up pass (Sec. III-B).
//   - The deserializer is instrumented: it counts varint bytes decoded,
//     payload bytes copied, and UTF-8 bytes validated, which the DPU/host
//     cost models (internal/cpumodel) convert into cycles.
//
// Deliberate restriction: a singular message field may appear at most once
// in a body (canonical encoders never emit duplicates; merging inside a
// fixed arena would require resizing, which arena objects cannot do —
// Sec. II-B).
package deser

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/utf8x"
	"dpurpc/internal/wire"
)

// Errors returned by the deserializer.
var (
	ErrDepthExceeded      = errors.New("deser: message nesting too deep")
	ErrDuplicateSubfield  = errors.New("deser: duplicate singular message field (arena merge unsupported)")
	ErrWireTypeMismatch   = errors.New("deser: wire type mismatch")
	ErrMalformed          = errors.New("deser: malformed message")
	ErrElementCountChange = errors.New("deser: element count changed between passes")
	ErrTooLarge           = errors.New("deser: decoded message exceeds the caller's limit")
)

// DefaultMaxDepth matches protobuf's default recursion limit.
const DefaultMaxDepth = 100

// GuardBytes is the size of the NullRef guard Fill prepends when decoding
// into a fresh arena at base region offset 0, so offset 0 stays
// unambiguous. Notes.Need does not include it; base-0 callers must add it to
// the reported size.
const GuardBytes = 8

// Options configure a Deserializer.
type Options struct {
	// ValidateUTF8 enables UTF-8 validation of string fields (on by
	// default in gRPC; one of the paper's measured cost centers).
	ValidateUTF8 bool
	// MaxDepth bounds message nesting (0 means DefaultMaxDepth).
	MaxDepth int
	// ScalarUTF8 selects the byte-at-a-time validator, representing a core
	// without vector units (the DPU side). The word-at-a-time validator
	// stands in for the host's SIMD path.
	ScalarUTF8 bool
	// SGPayloadMin, when > 0, enables scatter-gather payload notes on the
	// planned path: a singular string/bytes payload of at least this many
	// bytes is not copied into the object area during Fill — the scan
	// emits a payload-ref note and FillSG writes the SSO offset form
	// pointing at a dedicated payload segment of the registered region
	// (laid out by Segments). 0 (the default) keeps every payload
	// inline, byte-identical to the pre-SG deserializer.
	SGPayloadMin int
}

// Stats counts the operations the cost models charge for. All counters are
// cumulative; use Reset between measurement windows.
type Stats struct {
	VarintBytes uint64 // bytes consumed by varint decoding (tags + values)
	FixedBytes  uint64 // bytes consumed by fixed32/64 decoding
	CopyBytes   uint64 // payload bytes copied into the arena
	UTF8Bytes   uint64 // bytes run through UTF-8 validation
	Messages    uint64 // message bodies deserialized (incl. nested)
	Fields      uint64 // field values decoded
	ArenaBytes  uint64 // arena bytes consumed
	// Scan + Fill splits its work into decode and replay. ScannedBytes
	// counts wire bytes covered by the single structure-discovery pass;
	// ReplayedBytes counts arena bytes stored by replaying pre-decoded parse
	// notes (no re-decode, no re-validation). Fig. 7 zeroes both before it
	// models a decode, as the paper's one-pass deserializer has no replay.
	ScannedBytes  uint64
	ReplayedBytes uint64
	// RefBytes counts payload bytes carried as scatter-gather segments and
	// referenced by offset instead of copied by the fill: the deserializer
	// never touches them again after the single placement memcpy, so the
	// cost models price them at PayloadRefNS instead of CopyByteNS /
	// ReplayByteNS. Zero unless Options.SGPayloadMin is configured.
	RefBytes uint64
}

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = Stats{} }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.VarintBytes += other.VarintBytes
	s.FixedBytes += other.FixedBytes
	s.CopyBytes += other.CopyBytes
	s.UTF8Bytes += other.UTF8Bytes
	s.Messages += other.Messages
	s.Fields += other.Fields
	s.ArenaBytes += other.ArenaBytes
	s.ScannedBytes += other.ScannedBytes
	s.ReplayedBytes += other.ReplayedBytes
	s.RefBytes += other.RefBytes
}

// frame is per-nesting-level scratch (cursors and array bases per field),
// recycled across messages so steady-state deserialization performs zero
// heap allocations.
type frame struct {
	cursors []uint32 // fill cursors
	refs    []uint64 // array base region-offsets per repeated field
	seen    []bool   // singular message fields already materialized
}

func (f *frame) prepare(n int) {
	if cap(f.cursors) < n {
		f.cursors = make([]uint32, n)
		f.refs = make([]uint64, n)
		f.seen = make([]bool, n)
	}
	f.cursors = f.cursors[:n]
	f.refs = f.refs[:n]
	f.seen = f.seen[:n]
	for i := range f.cursors {
		f.cursors[i], f.refs[i], f.seen[i] = 0, 0, false
	}
}

// Deserializer decodes wire bytes into arena objects. It is not safe for
// concurrent use; each poller owns one (paper Sec. III-C threading model).
type Deserializer struct {
	opts   Options
	frames []*frame
	segCur uint64 // FillSG's cursor into the payload-segment area (region offset)
	// Stats accumulates instrumentation across calls.
	Stats Stats
}

// New returns a Deserializer with the given options.
func New(opts Options) *Deserializer {
	if opts.MaxDepth == 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	return &Deserializer{opts: opts}
}

func (d *Deserializer) frame(depth int) *frame {
	for len(d.frames) <= depth {
		d.frames = append(d.frames, &frame{})
	}
	return d.frames[depth]
}

func (d *Deserializer) validateUTF8(b []byte) bool {
	if !d.opts.ValidateUTF8 {
		return true
	}
	d.Stats.UTF8Bytes += uint64(len(b))
	if d.opts.ScalarUTF8 {
		return utf8x.ValidScalar(b)
	}
	return utf8x.Valid(b)
}

// setPresence sets the hasbit for field index idx in obj.
func setPresence(obj []byte, lay *abi.Layout, idx int) {
	word := lay.PresenceOff + uint32(idx/32)*4
	w := binary.LittleEndian.Uint32(obj[word : word+4])
	binary.LittleEndian.PutUint32(obj[word:word+4], w|1<<(uint(idx)%32))
}

// scalar decodes one singular scalar value, charging decode stats.
func (d *Deserializer) scalar(rest []byte, k protodesc.Kind, wt wire.Type) (uint64, int, error) {
	v, n, err := decodeScalar(rest, k, wt)
	if err != nil {
		return 0, 0, err
	}
	switch k.WireType() {
	case wire.TypeFixed32:
		d.Stats.FixedBytes += 4
	case wire.TypeFixed64:
		d.Stats.FixedBytes += 8
	default:
		d.Stats.VarintBytes += uint64(n)
	}
	return v, n, nil
}

// decodeScalar is the stat-free decode of one singular scalar value, shared
// between the charging scan above and the fast path's fill (where the scan
// already charged the decode).
func decodeScalar(rest []byte, k protodesc.Kind, wt wire.Type) (uint64, int, error) {
	switch k.WireType() {
	case wire.TypeFixed32:
		if wt != wire.TypeFixed32 {
			return 0, 0, ErrWireTypeMismatch
		}
		v, n := wire.Fixed32(rest)
		if n == 0 {
			return 0, 0, ErrMalformed
		}
		return uint64(v), n, nil
	case wire.TypeFixed64:
		if wt != wire.TypeFixed64 {
			return 0, 0, ErrWireTypeMismatch
		}
		v, n := wire.Fixed64(rest)
		if n == 0 {
			return 0, 0, ErrMalformed
		}
		return v, n, nil
	default:
		if wt != wire.TypeVarint {
			return 0, 0, ErrWireTypeMismatch
		}
		v, n := wire.Uvarint(rest)
		if n <= 0 {
			return 0, 0, ErrMalformed
		}
		return storedScalar(k, v), n, nil
	}
}

// storedScalar converts a decoded varint into the slot bit pattern.
func storedScalar(k protodesc.Kind, v uint64) uint64 {
	switch k {
	case protodesc.KindBool:
		if v != 0 {
			return 1
		}
		return 0
	case protodesc.KindInt32, protodesc.KindEnum, protodesc.KindUint32:
		return uint64(uint32(v))
	case protodesc.KindSint32:
		return uint64(uint32(int32(wire.DecodeZigZag(v))))
	case protodesc.KindSint64:
		return uint64(wire.DecodeZigZag(v))
	default:
		return v
	}
}

func wireErr(lay *abi.Layout, f *protodesc.Field, wt wire.Type) error {
	return fmt.Errorf("%w: %s.%s got %v", ErrWireTypeMismatch, lay.Msg.Name, f.Name, wt)
}

func wrapScalarErr(lay *abi.Layout, f *protodesc.Field, err error) error {
	return fmt.Errorf("%s.%s: %w", lay.Msg.Name, f.Name, err)
}

// sliceAt returns n bytes of the bump buffer at region offset off.
func sliceAt(bump *arena.Bump, base, off uint64, n int) ([]byte, error) {
	buf := bump.Bytes()
	if off < base {
		return nil, ErrMalformed
	}
	start := off - base
	if start+uint64(n) > uint64(len(buf)) {
		return nil, ErrMalformed
	}
	return buf[start : start+uint64(n)], nil
}

// Package workload defines the paper's three synthetic benchmark messages
// (Sec. VI-C1) and their generators:
//
//   - Small: a 15-byte message of various fields — the most common RPC
//     shape, stressing the RPC stack itself. Its serialized form is exactly
//     15 bytes and its deserialized C++-ABI object is exactly 40 bytes,
//     matching the compression example of Sec. VI-C3.
//   - x512 Ints: an unsigned 32-bit integer array whose varint-compressed
//     payload reproduces the paper's published facts: 276 bytes serialized
//     at a ~2x compression factor (512 bytes of raw integer data; the
//     paper's Sec. VI-C4 refers to the same series as "x128 int"). The
//     high computational cost comes from varint decoding.
//   - x8000 Chars: an 8000-character random string, serialized size 8003
//     bytes (compression factor 1.01x) — the high copy-cost message
//     standing in for requested text files.
//
// All randomness comes from the Mersenne Twister with a constant seed
// (internal/mt19937), as in the paper, so workloads are bit-reproducible.
package workload

import (
	"fmt"

	"dpurpc/internal/abi"
	"dpurpc/internal/adt"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/protodsl"
	"dpurpc/internal/protomsg"
)

// Schema is the proto3 definition of the benchmark messages and the
// offloaded service. The business logic is empty (Sec. VI-C: "the server
// responds with an empty message").
const Schema = `
syntax = "proto3";

package benchpb;

// Small is the paper's 15-byte message of various fields.
message Small {
  uint32 id = 1;
  bool flag = 2;
  sint32 delta = 3;
  float ratio = 4;
  uint64 count = 5;
}

// IntArray is the varint-decoding-heavy message.
message IntArray {
  repeated uint32 values = 1;
}

// CharArray is the copy-heavy message.
message CharArray {
  string data = 1;
}

// Blob is the opaque-payload message: a bytes field carrying arbitrary
// binary data (no UTF-8 validation), the canonical scatter-gather payload.
message Blob {
  bytes data = 1;
}

// Empty is the response of every benchmark RPC.
message Empty {}

service Bench {
  rpc CallSmall (Small) returns (Empty);
  rpc CallInts (IntArray) returns (Empty);
  rpc CallChars (CharArray) returns (Empty);
  rpc Echo (CharArray) returns (CharArray);
  rpc EchoBlob (Blob) returns (Blob);
}
`

// Method IDs assigned by declaration order in Schema.
const (
	MethodSmall uint16 = 0
	MethodInts  uint16 = 1
	MethodChars uint16 = 2
	// MethodEcho returns its char-array request verbatim: the
	// response-direction workload (duplex pipeline / response-serialization
	// offload scaling).
	MethodEcho uint16 = 3
	// MethodEchoBlob returns its bytes-payload request verbatim: the
	// scatter-gather workload (the payloadscale experiment), free of the
	// UTF-8 validation cost that string payloads pay in both SG and inline
	// modes.
	MethodEchoBlob uint16 = 4
)

// Env bundles the parsed schema, registry, and ADT table for the benchmark
// workloads.
type Env struct {
	Registry *protodesc.Registry
	Table    *adt.Table
	Service  *protodesc.Service

	Small     *protodesc.Message
	IntArray  *protodesc.Message
	CharArray *protodesc.Message
	Blob      *protodesc.Message
	Empty     *protodesc.Message

	SmallLay *abi.Layout
	IntsLay  *abi.Layout
	CharsLay *abi.Layout
	BlobLay  *abi.Layout
	EmptyLay *abi.Layout
}

// NewEnv parses the schema and builds the type environment. It panics only
// on programmer error (the schema is a compile-time constant).
func NewEnv() *Env {
	f, err := protodsl.Parse("bench.proto", Schema)
	if err != nil {
		panic(fmt.Sprintf("workload: schema: %v", err))
	}
	reg := protodesc.NewRegistry()
	if err := reg.Register(f); err != nil {
		panic(fmt.Sprintf("workload: register: %v", err))
	}
	table, err := adt.Build(reg)
	if err != nil {
		panic(fmt.Sprintf("workload: adt: %v", err))
	}
	return &Env{
		Registry:  reg,
		Table:     table,
		Service:   reg.Service("benchpb.Bench"),
		Small:     reg.Message("benchpb.Small"),
		IntArray:  reg.Message("benchpb.IntArray"),
		CharArray: reg.Message("benchpb.CharArray"),
		Blob:      reg.Message("benchpb.Blob"),
		Empty:     reg.Message("benchpb.Empty"),
		SmallLay:  table.ByName("benchpb.Small"),
		IntsLay:   table.ByName("benchpb.IntArray"),
		CharsLay:  table.ByName("benchpb.CharArray"),
		BlobLay:   table.ByName("benchpb.Blob"),
		EmptyLay:  table.ByName("benchpb.Empty"),
	}
}

// GenSmall returns a Small message serializing to exactly 15 bytes. The id
// and count vary with rng within their byte-width classes so contents are
// not constant while the wire size stays fixed.
func (e *Env) GenSmall(rng *mt19937.Source) *protomsg.Message {
	m := protomsg.New(e.Small)
	// id: 2-byte varint (128..16383).
	m.SetUint32("id", 128+rng.Uint32n(16384-128))
	m.SetBool("flag", true)
	// delta: 1-byte zigzag varint (-64..63, non-zero).
	d := int32(rng.Uint32n(127)) - 63
	if d == 0 {
		d = -17
	}
	m.SetInt32("delta", d)
	// ratio: fixed32, any non-zero float.
	m.SetFloat("ratio", 0.25+float32(rng.Uint32n(1000))/1000)
	// count: 2-byte varint.
	m.SetUint64("count", uint64(128+rng.Uint32n(16384-128)))
	return m
}

// SmallWireSize is the canonical Small serialized size (Sec. VI-C3).
const SmallWireSize = 15

// SmallObjectSize is the deserialized Small object size (Sec. VI-C3: "the
// deserialized object size is 40 bytes").
const SmallObjectSize = 40

// Fig7Counts is the element-count sweep of Fig. 7, for GenInts and
// GenChars.
func Fig7Counts() []int {
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
}

// GenInts returns an IntArray of n elements under the Fig. 7 distribution:
// uniformly random bit widths ("stored between 1 and 5 bytes ... integers
// are more likely to be smaller"), averaging ~2.81 varint bytes/element.
func (e *Env) GenInts(rng *mt19937.Source, n int) *protomsg.Message {
	m := protomsg.New(e.IntArray)
	for i := 0; i < n; i++ {
		shift := rng.Uint32n(32)
		m.AppendNum("values", uint64(rng.Uint32()>>shift))
	}
	return m
}

// CalibratedIntsCount is the element count of the Fig. 8 ints message.
const CalibratedIntsCount = 128

// CalibratedIntsWireSize is its serialized size (Sec. VI-C3: 276 bytes).
const CalibratedIntsWireSize = 276

// varintSizeMultiset is the per-element varint size distribution of the
// calibrated ints message: skewed toward small values, and summing to 273
// payload bytes so that tag(1) + length(2) + payload = 276 bytes on the
// wire, exactly the paper's serialized size.
var varintSizeMultiset = []struct {
	size  int
	count int
}{
	{1, 41}, {2, 47}, {3, 26}, {4, 10}, {5, 4},
}

// GenIntsCalibrated returns the Fig. 8 ints message: 128 elements whose
// varint sizes follow varintSizeMultiset in rng-shuffled order.
func (e *Env) GenIntsCalibrated(rng *mt19937.Source) *protomsg.Message {
	sizes := make([]int, 0, CalibratedIntsCount)
	for _, s := range varintSizeMultiset {
		for i := 0; i < s.count; i++ {
			sizes = append(sizes, s.size)
		}
	}
	// Fisher-Yates with the MT stream.
	for i := len(sizes) - 1; i > 0; i-- {
		j := int(rng.Uint32n(uint32(i + 1)))
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	m := protomsg.New(e.IntArray)
	for _, sz := range sizes {
		m.AppendNum("values", uint64(randVarintOfSize(rng, sz)))
	}
	return m
}

// randVarintOfSize returns a uint32 whose varint encoding is exactly size
// bytes (size in 1..5).
func randVarintOfSize(rng *mt19937.Source, size int) uint32 {
	// size s covers values with bit length in (7(s-1), 7s], i.e.
	// [2^(7(s-1)), 2^(7s)-1], except s=1 which includes 0, and s=5 which is
	// capped at 2^32-1.
	switch size {
	case 1:
		return rng.Uint32n(1 << 7)
	case 5:
		lo := uint32(1) << 28
		return lo + rng.Uint32n(1<<31-lo+(1<<31)) // [2^28, 2^32)
	default:
		lo := uint32(1) << (7 * (size - 1))
		hi := uint32(1) << (7 * size)
		return lo + rng.Uint32n(hi-lo)
	}
}

// Fig8IntsCount is the element count of the Fig. 8 "x512 Ints" scenario:
// 512 elements, as the scenario name says. (The 276-byte serialized-size
// fact of Sec. VI-C3 corresponds to the 128-element variant the paper's
// Sec. VI-C4 calls "x128 int"; both are provided — see EXPERIMENTS.md.)
const Fig8IntsCount = 512

// Fig8IntsWireSize is the serialized size of the Fig. 8 ints message:
// 512 elements at the same skewed size distribution (4x the calibrated
// multiset, 1092 payload bytes) plus 3 framing bytes.
const Fig8IntsWireSize = 1095

// GenIntsFig8 returns the Fig. 8 ints message: 512 elements with the same
// skewed varint-size distribution as the calibrated message (scaled 4x),
// giving a ~1.9x varint compression factor as in Sec. VI-C3.
func (e *Env) GenIntsFig8(rng *mt19937.Source) *protomsg.Message {
	sizes := make([]int, 0, Fig8IntsCount)
	for _, s := range varintSizeMultiset {
		for i := 0; i < s.count*4; i++ {
			sizes = append(sizes, s.size)
		}
	}
	for i := len(sizes) - 1; i > 0; i-- {
		j := int(rng.Uint32n(uint32(i + 1)))
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	m := protomsg.New(e.IntArray)
	for _, sz := range sizes {
		m.AppendNum("values", uint64(randVarintOfSize(rng, sz)))
	}
	return m
}

// CharsCount is the Fig. 8 char-array length.
const CharsCount = 8000

// CharsWireSize is its serialized size (Sec. VI-C3: 8003 bytes).
const CharsWireSize = 8003

// GenChars returns a CharArray of n random printable-ASCII characters
// (1 byte each, always valid UTF-8, uncompressed by varint coding).
func (e *Env) GenChars(rng *mt19937.Source, n int) *protomsg.Message {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(' ' + rng.Uint32n(95)) // printable ASCII
	}
	m := protomsg.New(e.CharArray)
	if err := m.SetString("data", string(buf)); err != nil {
		panic(err) // ASCII is always valid UTF-8
	}
	return m
}

// GenBlob returns a Blob of n random bytes — the full byte range, since a
// bytes field carries arbitrary binary data with no validation pass. The
// message holds its buffer by reference (SetBytes); nothing else does.
func (e *Env) GenBlob(rng *mt19937.Source, n int) *protomsg.Message {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(rng.Uint32())
	}
	m := protomsg.New(e.Blob)
	if err := m.SetBytes("data", buf); err != nil {
		panic(err)
	}
	return m
}

// Scenario names the three Fig. 8 workloads.
type Scenario int

// The Fig. 8 scenarios.
const (
	ScenarioSmall Scenario = iota
	ScenarioInts
	ScenarioChars
)

// MarshalJSON emits the scenario's display name so machine-readable
// reports (dpurpc-bench -format json) stay self-describing.
func (s Scenario) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", s.String())), nil
}

func (s Scenario) String() string {
	switch s {
	case ScenarioSmall:
		return "Small"
	case ScenarioInts:
		return "x512 Ints"
	case ScenarioChars:
		return "x8000 Chars"
	}
	return "unknown"
}

// Gen produces the canonical message for a scenario (the Fig. 8 variants).
func (e *Env) Gen(s Scenario, rng *mt19937.Source) *protomsg.Message {
	switch s {
	case ScenarioSmall:
		return e.GenSmall(rng)
	case ScenarioInts:
		return e.GenIntsFig8(rng)
	default:
		return e.GenChars(rng, CharsCount)
	}
}

// Method returns the offloaded service method ID for a scenario.
func (s Scenario) Method() uint16 {
	switch s {
	case ScenarioSmall:
		return MethodSmall
	case ScenarioInts:
		return MethodInts
	default:
		return MethodChars
	}
}

// Layout returns the request layout for a scenario.
func (e *Env) Layout(s Scenario) *abi.Layout {
	switch s {
	case ScenarioSmall:
		return e.SmallLay
	case ScenarioInts:
		return e.IntsLay
	default:
		return e.CharsLay
	}
}

// Desc returns the request descriptor for a scenario.
func (e *Env) Desc(s Scenario) *protodesc.Message {
	switch s {
	case ScenarioSmall:
		return e.Small
	case ScenarioInts:
		return e.IntArray
	default:
		return e.CharArray
	}
}

// Scenarios lists the three Fig. 8 workloads in paper order.
func Scenarios() []Scenario {
	return []Scenario{ScenarioSmall, ScenarioInts, ScenarioChars}
}

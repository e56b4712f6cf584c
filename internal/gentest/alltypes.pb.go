// Code generated by adtgen from alltypes.proto; DO NOT EDIT.

// Package gentest provides typed bindings for the alltypes schema:
// builders over dynamic messages, zero-copy views over shared-region
// objects, and service interfaces for the offloaded stack.
package gentest

import (
	"fmt"
	"math"

	"dpurpc"
)

// SchemaSource is the embedded proto3 source.
const SchemaSource = "// Exercises every field shape the binding generator supports.\nsyntax = \"proto3\";\n\npackage at;\n\nenum Mode {\n  MODE_UNSPECIFIED = 0;\n  MODE_FAST = 1;\n  MODE_SAFE = 2;\n}\n\nmessage Inner {\n  uint64 n = 1;\n  string tag = 2;\n}\n\nmessage All {\n  bool b = 1;\n  int32 i32 = 2;\n  sint32 s32 = 3;\n  uint32 u32 = 4;\n  int64 i64 = 5;\n  sint64 s64 = 6;\n  uint64 u64 = 7;\n  fixed32 f32 = 8;\n  sfixed32 sf32 = 9;\n  fixed64 f64 = 10;\n  sfixed64 sf64 = 11;\n  float fl = 12;\n  double db = 13;\n  string s = 14;\n  bytes raw = 15;\n  Mode mode = 16;\n  Inner inner = 17;\n  repeated uint32 nums = 18;\n  repeated double weights = 19;\n  repeated bool flags = 20;\n  repeated string names = 21;\n  repeated bytes blobs = 22;\n  repeated Inner inners = 23;\n}\n\nmessage Echoed {\n  All all = 1;\n  uint32 checksum = 2;\n}\n\nservice Mirror {\n  rpc Echo (All) returns (Echoed);\n}\n"

// SchemaFingerprint pins the ADT at generation time.
const SchemaFingerprint uint64 = 0x3204c1a77def9d5b

// LoadSchema parses the embedded source and verifies the fingerprint.
func LoadSchema() (*dpurpc.Schema, error) {
	s, err := dpurpc.ParseSchema("alltypes.proto", SchemaSource)
	if err != nil {
		return nil, err
	}
	if got := s.Table.Fingerprint(); got != SchemaFingerprint {
		return nil, fmt.Errorf("alltypes: ADT fingerprint drift: %016x", got)
	}
	return s, nil
}

func boolBits(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// Mode is the at.Mode enum.
type Mode = int32

const (
	Mode_MODE_UNSPECIFIED Mode = 0
	Mode_MODE_FAST        Mode = 1
	Mode_MODE_SAFE        Mode = 2
)

// All is a typed builder over a dynamic at.All message.
type All struct{ M *dpurpc.Message }

// NewAll returns an empty at.All.
func NewAll(s *dpurpc.Schema) All {
	return All{M: s.NewMessage("at.All")}
}

// AllView is a typed zero-copy view of a deserialized at.All.
type AllView struct{ V dpurpc.View }

// SetB sets the b field.
func (x All) SetB(v bool) { x.M.SetBool("b", v) }

// B returns the b field.
func (x All) B() bool { return x.M.Bool("b") }

// B returns the b field.
func (x AllView) B() bool { return x.V.BoolName("b") }

// SetI32 sets the i32 field.
func (x All) SetI32(v int32) { x.M.SetInt32("i32", v) }

// I32 returns the i32 field.
func (x All) I32() int32 { return x.M.Int32("i32") }

// I32 returns the i32 field.
func (x AllView) I32() int32 { return x.V.I32Name("i32") }

// SetS32 sets the s32 field.
func (x All) SetS32(v int32) { x.M.SetInt32("s32", v) }

// S32 returns the s32 field.
func (x All) S32() int32 { return x.M.Int32("s32") }

// S32 returns the s32 field.
func (x AllView) S32() int32 { return x.V.I32Name("s32") }

// SetU32 sets the u32 field.
func (x All) SetU32(v uint32) { x.M.SetUint32("u32", v) }

// U32 returns the u32 field.
func (x All) U32() uint32 { return x.M.Uint32("u32") }

// U32 returns the u32 field.
func (x AllView) U32() uint32 { return x.V.U32Name("u32") }

// SetI64 sets the i64 field.
func (x All) SetI64(v int64) { x.M.SetInt64("i64", v) }

// I64 returns the i64 field.
func (x All) I64() int64 { return x.M.Int64("i64") }

// I64 returns the i64 field.
func (x AllView) I64() int64 { return x.V.I64Name("i64") }

// SetS64 sets the s64 field.
func (x All) SetS64(v int64) { x.M.SetInt64("s64", v) }

// S64 returns the s64 field.
func (x All) S64() int64 { return x.M.Int64("s64") }

// S64 returns the s64 field.
func (x AllView) S64() int64 { return x.V.I64Name("s64") }

// SetU64 sets the u64 field.
func (x All) SetU64(v uint64) { x.M.SetUint64("u64", v) }

// U64 returns the u64 field.
func (x All) U64() uint64 { return x.M.Uint64("u64") }

// U64 returns the u64 field.
func (x AllView) U64() uint64 { return x.V.U64Name("u64") }

// SetF32 sets the f32 field.
func (x All) SetF32(v uint32) { x.M.SetUint32("f32", v) }

// F32 returns the f32 field.
func (x All) F32() uint32 { return x.M.Uint32("f32") }

// F32 returns the f32 field.
func (x AllView) F32() uint32 { return x.V.U32Name("f32") }

// SetSf32 sets the sf32 field.
func (x All) SetSf32(v int32) { x.M.SetInt32("sf32", v) }

// Sf32 returns the sf32 field.
func (x All) Sf32() int32 { return x.M.Int32("sf32") }

// Sf32 returns the sf32 field.
func (x AllView) Sf32() int32 { return x.V.I32Name("sf32") }

// SetF64 sets the f64 field.
func (x All) SetF64(v uint64) { x.M.SetUint64("f64", v) }

// F64 returns the f64 field.
func (x All) F64() uint64 { return x.M.Uint64("f64") }

// F64 returns the f64 field.
func (x AllView) F64() uint64 { return x.V.U64Name("f64") }

// SetSf64 sets the sf64 field.
func (x All) SetSf64(v int64) { x.M.SetInt64("sf64", v) }

// Sf64 returns the sf64 field.
func (x All) Sf64() int64 { return x.M.Int64("sf64") }

// Sf64 returns the sf64 field.
func (x AllView) Sf64() int64 { return x.V.I64Name("sf64") }

// SetFl sets the fl field.
func (x All) SetFl(v float32) { x.M.SetFloat("fl", v) }

// Fl returns the fl field.
func (x All) Fl() float32 { return x.M.Float("fl") }

// Fl returns the fl field.
func (x AllView) Fl() float32 { return x.V.F32Name("fl") }

// SetDb sets the db field.
func (x All) SetDb(v float64) { x.M.SetDouble("db", v) }

// Db returns the db field.
func (x All) Db() float64 { return x.M.Double("db") }

// Db returns the db field.
func (x AllView) Db() float64 { return x.V.F64Name("db") }

// SetS sets the s field (must be valid UTF-8).
func (x All) SetS(v string) error { return x.M.SetString("s", v) }

// S returns the s field.
func (x All) S() string { return x.M.GetString("s") }

// S returns the s field (zero-copy bytes).
func (x AllView) S() []byte { return x.V.StrName("s") }

// SetRaw sets the raw field to v by reference: v must stay unchanged
// while the message is read (dpurpc.Message.SetBytes).
func (x All) SetRaw(v []byte) error { return x.M.SetBytes("raw", v) }

// Raw returns the raw field.
func (x All) Raw() []byte { return x.M.Bytes("raw") }

// Raw returns the raw field (zero-copy).
func (x AllView) Raw() []byte { return x.V.StrName("raw") }

// SetMode sets the mode field.
func (x All) SetMode(v Mode) { x.M.SetEnum("mode", v) }

// Mode returns the mode field.
func (x All) Mode() Mode { return Mode(x.M.Int32("mode")) }

// Mode returns the mode field.
func (x AllView) Mode() Mode { return Mode(x.V.I32Name("mode")) }

// SetInner sets the inner field.
func (x All) SetInner(v Inner) error { return x.M.SetMessage("inner", v.M) }

// MutableInner returns the inner field, allocating it if unset.
func (x All) MutableInner() Inner { return Inner{M: x.M.MutableMsg("inner")} }

// Inner returns the inner field (zero Inner if unset).
func (x All) Inner() Inner { return Inner{M: x.M.Msg("inner")} }

// Inner returns the inner field as a zero-copy view.
func (x AllView) Inner() (InnerView, bool) {
	v, ok := x.V.MsgName("inner")
	return InnerView{V: v}, ok
}

// AddNums appends to the repeated nums field.
func (x All) AddNums(v uint32) { x.M.AppendNum("nums", uint64(v)) }

// Nums returns the repeated nums field.
func (x All) Nums() []uint32 {
	raw := x.M.Nums("nums")
	out := make([]uint32, len(raw))
	for i, b := range raw {
		out[i] = uint32(b)
	}
	return out
}

// NumsLen returns the element count of nums.
func (x AllView) NumsLen() int { return x.V.LenName("nums") }

// NumsAt returns element i of nums.
func (x AllView) NumsAt(i int) uint32 {
	b := x.V.NumAtName("nums", i)
	_ = b
	return uint32(b)
}

// AddWeights appends to the repeated weights field.
func (x All) AddWeights(v float64) { x.M.AppendNum("weights", math.Float64bits(v)) }

// Weights returns the repeated weights field.
func (x All) Weights() []float64 {
	raw := x.M.Nums("weights")
	out := make([]float64, len(raw))
	for i, b := range raw {
		out[i] = math.Float64frombits(b)
	}
	return out
}

// WeightsLen returns the element count of weights.
func (x AllView) WeightsLen() int { return x.V.LenName("weights") }

// WeightsAt returns element i of weights.
func (x AllView) WeightsAt(i int) float64 {
	b := x.V.NumAtName("weights", i)
	_ = b
	return math.Float64frombits(b)
}

// AddFlags appends to the repeated flags field.
func (x All) AddFlags(v bool) { x.M.AppendNum("flags", boolBits(v)) }

// Flags returns the repeated flags field.
func (x All) Flags() []bool {
	raw := x.M.Nums("flags")
	out := make([]bool, len(raw))
	for i, b := range raw {
		out[i] = b != 0
	}
	return out
}

// FlagsLen returns the element count of flags.
func (x AllView) FlagsLen() int { return x.V.LenName("flags") }

// FlagsAt returns element i of flags.
func (x AllView) FlagsAt(i int) bool {
	b := x.V.NumAtName("flags", i)
	_ = b
	return b != 0
}

// AddNames appends to the repeated names field.
func (x All) AddNames(v string) error { return x.M.AppendString("names", v) }

// NamesLen returns the element count of names.
func (x AllView) NamesLen() int { return x.V.LenName("names") }

// NamesAt returns element i of names (zero-copy).
func (x AllView) NamesAt(i int) []byte { return x.V.StrAtName("names", i) }

// AddBlobs appends v to the repeated blobs field by reference: v must stay
// unchanged while the message is read (dpurpc.Message.SetBytes).
func (x All) AddBlobs(v []byte) error { return x.M.AppendBytes("blobs", v) }

// BlobsLen returns the element count of blobs.
func (x AllView) BlobsLen() int { return x.V.LenName("blobs") }

// BlobsAt returns element i of blobs (zero-copy).
func (x AllView) BlobsAt(i int) []byte { return x.V.StrAtName("blobs", i) }

// AddInners appends a child to the repeated inners field.
func (x All) AddInners(v Inner) error { return x.M.AppendMessage("inners", v.M) }

// InnersLen returns the element count of inners.
func (x AllView) InnersLen() int { return x.V.LenName("inners") }

// InnersAt returns element i of inners as a zero-copy view.
func (x AllView) InnersAt(i int) (InnerView, bool) {
	v, ok := x.V.MsgAtName("inners", i)
	return InnerView{V: v}, ok
}

// Echoed is a typed builder over a dynamic at.Echoed message.
type Echoed struct{ M *dpurpc.Message }

// NewEchoed returns an empty at.Echoed.
func NewEchoed(s *dpurpc.Schema) Echoed {
	return Echoed{M: s.NewMessage("at.Echoed")}
}

// EchoedView is a typed zero-copy view of a deserialized at.Echoed.
type EchoedView struct{ V dpurpc.View }

// SetAll sets the all field.
func (x Echoed) SetAll(v All) error { return x.M.SetMessage("all", v.M) }

// MutableAll returns the all field, allocating it if unset.
func (x Echoed) MutableAll() All { return All{M: x.M.MutableMsg("all")} }

// All returns the all field (zero All if unset).
func (x Echoed) All() All { return All{M: x.M.Msg("all")} }

// All returns the all field as a zero-copy view.
func (x EchoedView) All() (AllView, bool) {
	v, ok := x.V.MsgName("all")
	return AllView{V: v}, ok
}

// SetChecksum sets the checksum field.
func (x Echoed) SetChecksum(v uint32) { x.M.SetUint32("checksum", v) }

// Checksum returns the checksum field.
func (x Echoed) Checksum() uint32 { return x.M.Uint32("checksum") }

// Checksum returns the checksum field.
func (x EchoedView) Checksum() uint32 { return x.V.U32Name("checksum") }

// Inner is a typed builder over a dynamic at.Inner message.
type Inner struct{ M *dpurpc.Message }

// NewInner returns an empty at.Inner.
func NewInner(s *dpurpc.Schema) Inner {
	return Inner{M: s.NewMessage("at.Inner")}
}

// InnerView is a typed zero-copy view of a deserialized at.Inner.
type InnerView struct{ V dpurpc.View }

// SetN sets the n field.
func (x Inner) SetN(v uint64) { x.M.SetUint64("n", v) }

// N returns the n field.
func (x Inner) N() uint64 { return x.M.Uint64("n") }

// N returns the n field.
func (x InnerView) N() uint64 { return x.V.U64Name("n") }

// SetTag sets the tag field (must be valid UTF-8).
func (x Inner) SetTag(v string) error { return x.M.SetString("tag", v) }

// Tag returns the tag field.
func (x Inner) Tag() string { return x.M.GetString("tag") }

// Tag returns the tag field (zero-copy bytes).
func (x InnerView) Tag() []byte { return x.V.StrName("tag") }

// MirrorServer is the host-side implementation of at.Mirror. Handlers receive
// zero-copy request views and return (response, status); status 0 is OK
// and a zero response is sent as an empty message.
type MirrorServer interface {
	Echo(req AllView) (Echoed, uint16)
}

// RegisterMirror adapts srv for dpurpc.NewOffloadedStack / NewBaselineStack.
func RegisterMirror(srv MirrorServer) map[string]dpurpc.Impl {
	return map[string]dpurpc.Impl{
		"at.Mirror": {
			"Echo": func(req dpurpc.View) (*dpurpc.Message, uint16) {
				out, status := srv.Echo(AllView{V: req})
				return out.M, status
			},
		},
	}
}

// MirrorClient is a typed client for at.Mirror.
type MirrorClient struct {
	C *dpurpc.Client
	S *dpurpc.Schema
}

// Echo calls at.Mirror.Echo.
func (c MirrorClient) Echo(req All) (Echoed, error) {
	resp, err := c.C.Call(c.S, "at.Mirror", "Echo", req.M)
	if err != nil {
		return Echoed{}, err
	}
	return Echoed{M: resp}, nil
}

package deser

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/protodsl"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/wire"
)

const schema = `
syntax = "proto3";
package t;

message Small {
  uint32 id = 1;
  bool flag = 2;
  sint32 delta = 3;
  float ratio = 4;
}

message IntArray { repeated uint32 values = 1; }
message CharArray { string data = 1; }

message Everything {
  bool b = 1;
  int32 i32 = 2;
  sint32 s32 = 3;
  uint32 u32 = 4;
  int64 i64 = 5;
  sint64 s64 = 6;
  uint64 u64 = 7;
  fixed32 f32 = 8;
  sfixed32 sf32 = 9;
  fixed64 f64 = 10;
  sfixed64 sf64 = 11;
  float fl = 12;
  double db = 13;
  string s = 14;
  bytes raw = 15;
  Small child = 16;
  repeated uint32 nums = 17;
  repeated sint64 zig = 18 [packed=false];
  repeated fixed64 stamps = 19;
  repeated bool flags = 20;
  repeated string names = 21;
  repeated Small kids = 22;
  repeated double weights = 23;
}

message Deep {
  uint32 n = 1;
  Deep inner = 2;
}

enum Color { RED = 0; GREEN = 1; BLUE = 2; }

// Packed carries one packed varint field per varint kind: every element
// width (1, 4, 8), zigzag and not.
message Packed {
  repeated int32 i32 = 1;
  repeated int64 i64 = 2;
  repeated uint64 u64 = 3;
  repeated sint32 s32 = 4;
  repeated sint64 s64 = 5;
  repeated bool b = 6;
  repeated Color e = 7;
  repeated uint32 u32 = 8;
}
`

var (
	smallDesc  *protodesc.Message
	intArrDesc *protodesc.Message
	charDesc   *protodesc.Message
	everyDesc  *protodesc.Message
	deepDesc   *protodesc.Message
	packedDesc *protodesc.Message

	smallLay  *abi.Layout
	intArrLay *abi.Layout
	charLay   *abi.Layout
	everyLay  *abi.Layout
	deepLay   *abi.Layout
	packedLay *abi.Layout
)

func init() {
	f, err := protodsl.Parse("deser_test.proto", schema)
	if err != nil {
		panic(err)
	}
	reg := protodesc.NewRegistry()
	if err := reg.Register(f); err != nil {
		panic(err)
	}
	smallDesc = reg.Message("t.Small")
	intArrDesc = reg.Message("t.IntArray")
	charDesc = reg.Message("t.CharArray")
	everyDesc = reg.Message("t.Everything")
	deepDesc = reg.Message("t.Deep")
	packedDesc = reg.Message("t.Packed")
	lays := abi.ComputeAll([]*protodesc.Message{smallDesc, intArrDesc, charDesc, everyDesc, deepDesc, packedDesc})
	smallLay, intArrLay, charLay, everyLay, deepLay, packedLay = lays[0], lays[1], lays[2], lays[3], lays[4], lays[5]
	for i, l := range lays {
		l.SetClassID(uint32(i))
	}
}

// measureBase0 sizes a base-0 deserialization: the exact arena bytes plus
// the GuardBytes prefix Deserialize prepends at base 0.
func measureBase0(lay *abi.Layout, data []byte) (int, error) {
	need, err := MeasureExact(lay, data)
	return need + GuardBytes, err
}

// roundTrip deserializes data into a fresh arena and returns the root view.
func roundTrip(t *testing.T, lay *abi.Layout, data []byte) abi.View {
	t.Helper()
	need, err := measureBase0(lay, data)
	if err != nil {
		t.Fatalf("MeasureExact: %v", err)
	}
	bump := arena.NewBump(make([]byte, need))
	d := New(Options{ValidateUTF8: true})
	off, err := d.Deserialize(lay, data, bump, 0)
	if err != nil {
		t.Fatalf("Deserialize: %v", err)
	}
	if bump.Used() != need {
		t.Fatalf("exact size %d missed: used %d", need, bump.Used())
	}
	return abi.MakeView(&abi.Region{Buf: bump.Bytes(), Base: 0}, off, lay)
}

// reserialize checks Serialize(view) reproduces the canonical bytes.
func reserialize(t *testing.T, v abi.View, want []byte) {
	t.Helper()
	got, err := Serialize(v, nil)
	if err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Serialize mismatch:\n got %x\nwant %x", got, want)
	}
	n, err := SerializedSize(v)
	if err != nil || n != len(want) {
		t.Fatalf("SerializedSize = %d,%v want %d", n, err, len(want))
	}
}

func TestSmallMessage(t *testing.T) {
	m := protomsg.New(smallDesc)
	m.SetUint32("id", 4242)
	m.SetBool("flag", true)
	m.SetInt32("delta", -17)
	m.SetFloat("ratio", 0.75)
	data := m.Marshal(nil)

	v := roundTrip(t, smallLay, data)
	if !v.Valid() {
		t.Fatal("view invalid")
	}
	if v.U32Name("id") != 4242 || !v.BoolName("flag") ||
		v.I32Name("delta") != -17 || v.F32Name("ratio") != 0.75 {
		t.Error("values wrong")
	}
	for _, n := range []string{"id", "flag", "delta", "ratio"} {
		if !v.HasName(n) {
			t.Errorf("%s hasbit not set", n)
		}
	}
	reserialize(t, v, data)
}

func TestEverythingRoundTrip(t *testing.T) {
	m := protomsg.New(everyDesc)
	m.SetBool("b", true)
	m.SetInt32("i32", -123456)
	m.SetInt32("s32", -77)
	m.SetUint32("u32", 3000000000)
	m.SetInt64("i64", math.MinInt64)
	m.SetInt64("s64", -99999999999)
	m.SetUint64("u64", math.MaxUint64)
	m.SetUint32("f32", 0xcafebabe)
	m.SetInt32("sf32", -1)
	m.SetUint64("f64", 1<<62)
	m.SetInt64("sf64", -2)
	m.SetFloat("fl", 1.5)
	m.SetDouble("db", -2.25e-100)
	m.SetString("s", "inline") // SSO
	m.SetBytes("raw", bytes.Repeat([]byte{7}, 100))
	child := protomsg.New(smallDesc)
	child.SetUint32("id", 5)
	child.SetInt32("delta", -3)
	m.SetMessage("child", child)
	for i := 0; i < 50; i++ {
		m.AppendNum("nums", uint64(i*7))
	}
	for _, z := range []int64{-1, 0, 1, math.MaxInt64, math.MinInt64} {
		m.AppendNum("zig", uint64(z))
	}
	for i := 0; i < 9; i++ {
		m.AppendNum("stamps", uint64(1)<<uint(i*7))
	}
	for i := 0; i < 5; i++ {
		m.AppendNum("flags", uint64(i%2))
	}
	m.AppendString("names", "tiny")
	m.AppendString("names", strings.Repeat("long", 10))
	m.AppendString("names", "")
	for i := 0; i < 3; i++ {
		k := protomsg.New(smallDesc)
		k.SetUint32("id", uint32(100+i))
		m.AppendMessage("kids", k)
	}
	m.AppendNum("weights", math.Float64bits(3.14))
	data := m.Marshal(nil)

	v := roundTrip(t, everyLay, data)
	if v.I32Name("i32") != -123456 || v.I32Name("s32") != -77 {
		t.Error("int32 kinds wrong")
	}
	if v.U32Name("u32") != 3000000000 || v.I64Name("i64") != math.MinInt64 {
		t.Error("wide ints wrong")
	}
	if v.I64Name("s64") != -99999999999 || v.U64Name("u64") != math.MaxUint64 {
		t.Error("64-bit varints wrong")
	}
	if v.U32Name("f32") != 0xcafebabe || v.I32Name("sf32") != -1 {
		t.Error("fixed32 wrong")
	}
	if v.U64Name("f64") != 1<<62 || v.I64Name("sf64") != -2 {
		t.Error("fixed64 wrong")
	}
	if v.F32Name("fl") != 1.5 || v.F64Name("db") != -2.25e-100 {
		t.Error("floats wrong")
	}
	if string(v.StrName("s")) != "inline" || len(v.StrName("raw")) != 100 {
		t.Error("strings wrong")
	}
	cv, ok := v.MsgName("child")
	if !ok || cv.U32Name("id") != 5 || cv.I32Name("delta") != -3 {
		t.Error("child wrong")
	}
	if v.LenName("nums") != 50 || v.NumAtName("nums", 49) != 49*7 {
		t.Error("packed u32 wrong")
	}
	if int64(v.NumAtName("zig", 0)) != -1 || int64(v.NumAtName("zig", 4)) != math.MinInt64 {
		t.Error("zigzag array wrong")
	}
	if v.LenName("stamps") != 9 || v.NumAtName("stamps", 8) != 1<<56 {
		t.Error("fixed array wrong")
	}
	if v.NumAtName("flags", 1) != 1 || v.NumAtName("flags", 0) != 0 {
		t.Error("bool array wrong")
	}
	if string(v.StrAtName("names", 1)) != strings.Repeat("long", 10) {
		t.Error("repeated string wrong")
	}
	if got := v.StrAtName("names", 2); got == nil || len(got) != 0 {
		t.Error("empty repeated string wrong")
	}
	k2, ok := v.MsgAtName("kids", 2)
	if !ok || k2.U32Name("id") != 102 {
		t.Error("repeated message wrong")
	}
	if math.Float64frombits(v.NumAtName("weights", 0)) != 3.14 {
		t.Error("double array wrong")
	}
	reserialize(t, v, data)
}

func TestIntArrayScenario(t *testing.T) {
	// The paper's x512 Ints message: skewed random uint32s, mostly small.
	rng := mt19937.New(mt19937.DefaultSeed)
	m := protomsg.New(intArrDesc)
	for i := 0; i < 512; i++ {
		shift := rng.Uint32n(32)
		m.AppendNum("values", uint64(rng.Uint32()>>shift))
	}
	data := m.Marshal(nil)
	v := roundTrip(t, intArrLay, data)
	if v.LenName("values") != 512 {
		t.Fatalf("len = %d", v.LenName("values"))
	}
	rng.Seed(mt19937.DefaultSeed)
	for i := 0; i < 512; i++ {
		shift := rng.Uint32n(32)
		if want := uint64(rng.Uint32() >> shift); v.NumAtName("values", i) != want {
			t.Fatalf("element %d = %d want %d", i, v.NumAtName("values", i), want)
		}
	}
	reserialize(t, v, data)
}

func TestCharArrayScenario(t *testing.T) {
	payload := strings.Repeat("abcdefgh", 1000) // 8000 chars
	m := protomsg.New(charDesc)
	m.SetString("data", payload)
	data := m.Marshal(nil)
	if len(data) != 8003 {
		t.Fatalf("x8000 chars wire size = %d, paper says 8003", len(data))
	}
	v := roundTrip(t, charLay, data)
	if string(v.StrName("data")) != payload {
		t.Error("char array wrong")
	}
	if v.IsSSO(charLay.Msg.FieldByName("data").Index) {
		t.Error("8000-byte string cannot be SSO")
	}
	reserialize(t, v, data)
}

func TestSSOBoundary(t *testing.T) {
	for _, n := range []int{0, 1, 14, 15, 16, 17, 100} {
		m := protomsg.New(charDesc)
		m.SetString("data", strings.Repeat("x", n))
		data := m.Marshal(nil)
		v := roundTrip(t, charLay, data)
		if got := len(v.StrName("data")); got != n {
			t.Errorf("n=%d: read %d bytes", n, got)
		}
		idx := charLay.Msg.FieldByName("data").Index
		wantSSO := n <= 15 && n > 0
		if n == 0 {
			continue // zero-length strings are not marked present on the wire
		}
		if v.IsSSO(idx) != wantSSO {
			t.Errorf("n=%d: IsSSO = %v, want %v", n, v.IsSSO(idx), wantSSO)
		}
	}
}

func TestUnknownFieldsSkipped(t *testing.T) {
	var data []byte
	data = wire.AppendTag(data, 99, wire.TypeBytes)
	data = wire.AppendBytes(data, []byte("mystery"))
	data = wire.AppendTag(data, 1, wire.TypeVarint)
	data = wire.AppendVarint(data, 7)
	v := roundTrip(t, smallLay, data)
	if v.U32Name("id") != 7 {
		t.Error("field after unknown lost")
	}
}

func TestDuplicateSingularMessageRejected(t *testing.T) {
	child := protomsg.New(smallDesc)
	child.SetUint32("id", 1)
	cb := child.Marshal(nil)
	var data []byte
	for i := 0; i < 2; i++ {
		data = wire.AppendTag(data, 16, wire.TypeBytes) // Everything.child
		data = wire.AppendBytes(data, cb)
	}
	bump := arena.NewBump(make([]byte, 4096))
	d := New(Options{})
	if _, err := d.Deserialize(everyLay, data, bump, 0); err == nil {
		t.Error("duplicate singular message accepted")
	}
}

func TestDepthLimit(t *testing.T) {
	// Build nesting deeper than the limit.
	depth := DefaultMaxDepth + 5
	var build func(d int) *protomsg.Message
	build = func(d int) *protomsg.Message {
		m := protomsg.New(deepDesc)
		m.SetUint32("n", uint32(d))
		if d > 0 {
			m.SetMessage("inner", build(d-1))
		}
		return m
	}
	data := build(depth).Marshal(nil)
	bump := arena.NewBump(make([]byte, 1<<20))
	d := New(Options{})
	if _, err := d.Deserialize(deepLay, data, bump, 0); err == nil {
		t.Error("over-deep message accepted")
	}
	if _, err := measureBase0(deepLay, data); err == nil {
		t.Error("Measure accepted over-deep message")
	}
	// Just inside the limit is fine.
	ok := build(DefaultMaxDepth - 2).Marshal(nil)
	need, err := measureBase0(deepLay, ok)
	if err != nil {
		t.Fatal(err)
	}
	bump2 := arena.NewBump(make([]byte, need))
	if _, err := New(Options{}).Deserialize(deepLay, ok, bump2, 0); err != nil {
		t.Errorf("depth-99 message rejected: %v", err)
	}
}

func TestInvalidUTF8(t *testing.T) {
	var data []byte
	data = wire.AppendTag(data, 1, wire.TypeBytes) // CharArray.data
	data = wire.AppendBytes(data, []byte{0xff, 0xfe})
	bump := arena.NewBump(make([]byte, 4096))
	d := New(Options{ValidateUTF8: true})
	if _, err := d.Deserialize(charLay, data, bump, 0); err != wire.ErrInvalidUTF8 {
		t.Errorf("err = %v", err)
	}
	// Without validation it passes (bytes preserved).
	bump.Reset()
	d2 := New(Options{ValidateUTF8: false})
	if _, err := d2.Deserialize(charLay, data, bump, 0); err != nil {
		t.Errorf("unvalidated err = %v", err)
	}
	// Scalar validator path.
	bump.Reset()
	d3 := New(Options{ValidateUTF8: true, ScalarUTF8: true})
	if _, err := d3.Deserialize(charLay, data, bump, 0); err != wire.ErrInvalidUTF8 {
		t.Errorf("scalar validator err = %v", err)
	}
}

func TestMalformedInputs(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated tag", []byte{0x80}},
		{"bad field number", wire.AppendVarint(nil, 0)}, // tag with field 0
		{"truncated varint value", []byte{0x08, 0x80}},
		{"truncated string", append(wire.AppendTag(nil, 14, wire.TypeBytes), 0x7f)},
		{"group wire type", wire.AppendTag(nil, 1, wire.TypeStartGroup)},
		{"wrong wire type scalar", append(wire.AppendTag(nil, 1, wire.TypeFixed64), 1, 2, 3, 4, 5, 6, 7, 8)},
		{"truncated fixed", append(wire.AppendTag(nil, 8, wire.TypeFixed32), 1, 2)},
	}
	for _, c := range cases {
		bump := arena.NewBump(make([]byte, 1<<16))
		d := New(Options{})
		if _, err := d.Deserialize(everyLay, c.data, bump, 0); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if _, err := measureBase0(everyLay, c.data); err == nil {
			t.Errorf("%s: MeasureExact accepted", c.name)
		}
	}
}

func TestTruncatedPackedVarint(t *testing.T) {
	var data []byte
	data = wire.AppendTag(data, 1, wire.TypeBytes) // IntArray.values
	data = wire.AppendBytes(data, []byte{0x80})    // dangling continuation
	if _, err := measureBase0(intArrLay, data); err == nil {
		t.Error("Measure accepted truncated packed varint")
	}
	bump := arena.NewBump(make([]byte, 4096))
	if _, err := New(Options{}).Deserialize(intArrLay, data, bump, 0); err == nil {
		t.Error("Deserialize accepted truncated packed varint")
	}
}

func TestArenaExhaustion(t *testing.T) {
	m := protomsg.New(charDesc)
	m.SetString("data", strings.Repeat("x", 1000))
	data := m.Marshal(nil)
	bump := arena.NewBump(make([]byte, 64)) // far too small
	d := New(Options{})
	if _, err := d.Deserialize(charLay, data, bump, 0); err == nil {
		t.Error("exhausted arena accepted")
	}
}

func TestNonZeroBase(t *testing.T) {
	m := protomsg.New(everyDesc)
	m.SetString("s", strings.Repeat("spill", 10))
	child := protomsg.New(smallDesc)
	child.SetUint32("id", 11)
	m.SetMessage("child", child)
	m.AppendNum("nums", 1)
	m.AppendNum("nums", 2)
	data := m.Marshal(nil)

	const base = 1 << 20
	bump := arena.NewBump(make([]byte, 1<<16))
	d := New(Options{})
	off, err := d.Deserialize(everyLay, data, bump, base)
	if err != nil {
		t.Fatal(err)
	}
	if off < base {
		t.Fatalf("root offset %d below base", off)
	}
	v := abi.MakeView(&abi.Region{Buf: bump.Bytes(), Base: base}, off, everyLay)
	if string(v.StrName("s")) != strings.Repeat("spill", 10) {
		t.Error("spilled string at non-zero base wrong")
	}
	cv, ok := v.MsgName("child")
	if !ok || cv.U32Name("id") != 11 {
		t.Error("child at non-zero base wrong")
	}
	if v.NumAtName("nums", 1) != 2 {
		t.Error("array at non-zero base wrong")
	}
	reserialize(t, v, data)
}

func TestStatsInstrumentation(t *testing.T) {
	m := protomsg.New(everyDesc)
	m.SetUint32("u32", 300) // 2-byte varint
	m.SetString("s", strings.Repeat("q", 50))
	child := protomsg.New(smallDesc)
	child.SetUint32("id", 1)
	m.SetMessage("child", child)
	data := m.Marshal(nil)

	d := New(Options{ValidateUTF8: true})
	bump := arena.NewBump(make([]byte, 1<<16))
	if _, err := d.Deserialize(everyLay, data, bump, 0); err != nil {
		t.Fatal(err)
	}
	s := d.Stats
	if s.Messages != 2 {
		t.Errorf("Messages = %d, want 2", s.Messages)
	}
	if s.Fields != 4 {
		t.Errorf("Fields = %d, want 4", s.Fields)
	}
	if s.CopyBytes != 50 {
		t.Errorf("CopyBytes = %d, want 50", s.CopyBytes)
	}
	if s.UTF8Bytes != 50 {
		t.Errorf("UTF8Bytes = %d, want 50", s.UTF8Bytes)
	}
	if s.VarintBytes == 0 || s.ArenaBytes == 0 {
		t.Error("varint/arena counters empty")
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.CopyBytes != 100 {
		t.Error("Stats.Add broken")
	}
	sum.Reset()
	if sum != (Stats{}) {
		t.Error("Stats.Reset broken")
	}
}

func TestZeroAllocSteadyState(t *testing.T) {
	m := protomsg.New(intArrDesc)
	for i := 0; i < 512; i++ {
		m.AppendNum("values", uint64(i))
	}
	data := m.Marshal(nil)
	need, _ := measureBase0(intArrLay, data)
	bump := arena.NewBump(make([]byte, need))
	d := New(Options{ValidateUTF8: true})
	// Warm up frame scratch.
	if _, err := d.Deserialize(intArrLay, data, bump, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		bump.Reset()
		if _, err := d.Deserialize(intArrLay, data, bump, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state deserialization allocates %.1f objects/op; paper requires 0", allocs)
	}
}

func TestExactSizeAcrossShapes(t *testing.T) {
	rng := mt19937.New(99)
	for trial := 0; trial < 50; trial++ {
		m := protomsg.New(everyDesc)
		if rng.Uint32n(2) == 0 {
			m.SetString("s", strings.Repeat("s", int(rng.Uint32n(100))))
		}
		n := int(rng.Uint32n(64))
		for i := 0; i < n; i++ {
			m.AppendNum("nums", uint64(rng.Uint32()))
		}
		k := int(rng.Uint32n(4))
		for i := 0; i < k; i++ {
			c := protomsg.New(smallDesc)
			c.SetUint32("id", rng.Uint32())
			m.AppendMessage("kids", c)
		}
		data := m.Marshal(nil)
		need, err := measureBase0(everyLay, data)
		if err != nil {
			t.Fatal(err)
		}
		bump := arena.NewBump(make([]byte, need))
		if _, err := New(Options{}).Deserialize(everyLay, data, bump, 0); err != nil {
			t.Fatalf("trial %d: deserialize into exact buffer failed: %v", trial, err)
		}
		if bump.Used() != need {
			t.Fatalf("trial %d: used %d != measured %d", trial, bump.Used(), need)
		}
	}
}

func TestEmptyMessage(t *testing.T) {
	v := roundTrip(t, smallLay, nil)
	if !v.Valid() {
		t.Error("empty message view invalid")
	}
	if v.HasName("id") || v.U32Name("id") != 0 {
		t.Error("empty message has set fields")
	}
	reserialize(t, v, nil)
}

func BenchmarkDeserializeInts512(b *testing.B) {
	rng := mt19937.New(mt19937.DefaultSeed)
	m := protomsg.New(intArrDesc)
	for i := 0; i < 512; i++ {
		shift := rng.Uint32n(32)
		m.AppendNum("values", uint64(rng.Uint32()>>shift))
	}
	data := m.Marshal(nil)
	need, _ := measureBase0(intArrLay, data)
	bump := arena.NewBump(make([]byte, need))
	d := New(Options{ValidateUTF8: true})
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bump.Reset()
		if _, err := d.Deserialize(intArrLay, data, bump, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeserializeChars8000(b *testing.B) {
	m := protomsg.New(charDesc)
	m.SetString("data", strings.Repeat("abcdefgh", 1000))
	data := m.Marshal(nil)
	need, _ := measureBase0(charLay, data)
	bump := arena.NewBump(make([]byte, need))
	d := New(Options{ValidateUTF8: true})
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bump.Reset()
		if _, err := d.Deserialize(charLay, data, bump, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeserializeSmall(b *testing.B) {
	m := protomsg.New(smallDesc)
	m.SetUint32("id", 4242)
	m.SetBool("flag", true)
	m.SetInt32("delta", -17)
	m.SetFloat("ratio", 0.75)
	data := m.Marshal(nil)
	need, _ := measureBase0(smallLay, data)
	bump := arena.NewBump(make([]byte, need))
	d := New(Options{ValidateUTF8: true})
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bump.Reset()
		if _, err := d.Deserialize(smallLay, data, bump, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializeView(b *testing.B) {
	m := protomsg.New(everyDesc)
	m.SetUint32("u32", 77)
	m.SetString("s", strings.Repeat("x", 64))
	for i := 0; i < 32; i++ {
		m.AppendNum("nums", uint64(i))
	}
	data := m.Marshal(nil)
	need, _ := measureBase0(everyLay, data)
	bump := arena.NewBump(make([]byte, need))
	d := New(Options{})
	off, err := d.Deserialize(everyLay, data, bump, 0)
	if err != nil {
		b.Fatal(err)
	}
	v := abi.MakeView(&abi.Region{Buf: bump.Bytes(), Base: 0}, off, everyLay)
	buf := make([]byte, 0, len(data))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = Serialize(v, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

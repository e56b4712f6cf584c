package objconv

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/deser"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/protodsl"
	"dpurpc/internal/protomsg"
)

const schema = `
syntax = "proto3";
package t;

message Leaf {
  uint32 id = 1;
  string tag = 2;
}

message Everything {
  bool b = 1;
  int32 i32 = 2;
  sint32 s32 = 3;
  uint32 u32 = 4;
  int64 i64 = 5;
  uint64 u64 = 6;
  fixed32 f32 = 7;
  fixed64 f64 = 8;
  sfixed32 sf32 = 9;
  sfixed64 sf64 = 10;
  float fl = 11;
  double db = 12;
  string s = 13;
  bytes raw = 14;
  Leaf child = 15;
  repeated uint32 nums = 16;
  repeated string names = 17;
  repeated bytes blobs = 18;
  repeated Leaf kids = 19;
  repeated sint64 zig = 20;
}
`

var (
	leafDesc  *protodesc.Message
	everyDesc *protodesc.Message
	leafLay   *abi.Layout
	everyLay  *abi.Layout
)

func init() {
	f, err := protodsl.Parse("objconv.proto", schema)
	if err != nil {
		panic(err)
	}
	reg := protodesc.NewRegistry()
	if err := reg.Register(f); err != nil {
		panic(err)
	}
	leafDesc = reg.Message("t.Leaf")
	everyDesc = reg.Message("t.Everything")
	lays := abi.ComputeAll([]*protodesc.Message{leafDesc, everyDesc})
	leafLay, everyLay = lays[0], lays[1]
	leafLay.SetClassID(1)
	everyLay.SetClassID(2)
}

func bigMessage(t testing.TB) *protomsg.Message {
	t.Helper()
	m := protomsg.New(everyDesc)
	m.SetBool("b", true)
	m.SetInt32("i32", -42)
	m.SetInt32("s32", -7)
	m.SetUint32("u32", 3000000000)
	m.SetInt64("i64", math.MinInt64)
	m.SetUint64("u64", math.MaxUint64)
	m.SetUint32("f32", 0xdeadbeef)
	m.SetUint64("f64", 1<<60)
	m.SetInt32("sf32", -1)
	m.SetInt64("sf64", -2)
	m.SetFloat("fl", 0.5)
	m.SetDouble("db", -3.5e200)
	m.SetString("s", "short") // SSO
	m.SetBytes("raw", bytes.Repeat([]byte{9}, 100))
	child := protomsg.New(leafDesc)
	child.SetUint32("id", 7)
	child.SetString("tag", strings.Repeat("tag", 20))
	m.SetMessage("child", child)
	for i := 0; i < 40; i++ {
		m.AppendNum("nums", uint64(i*i))
	}
	m.AppendString("names", "a")
	m.AppendString("names", strings.Repeat("b", 50))
	m.AppendBytes("blobs", []byte{1, 2, 3})
	for i := 0; i < 3; i++ {
		k := protomsg.New(leafDesc)
		k.SetUint32("id", uint32(100+i))
		m.AppendMessage("kids", k)
	}
	for _, z := range []int64{-5, 5, math.MinInt64} {
		m.AppendNum("zig", uint64(z))
	}
	return m
}

func TestToArenaFromArenaRoundTrip(t *testing.T) {
	m := bigMessage(t)
	need, err := MeasureMessage(everyLay, m)
	if err != nil {
		t.Fatal(err)
	}
	b := abi.NewBuilder(arena.NewBump(make([]byte, need)), 0)
	obj, err := ToArena(b, everyLay, m)
	if err != nil {
		t.Fatal(err)
	}
	if b.Used() > need {
		t.Fatalf("MeasureMessage bound %d exceeded: %d", need, b.Used())
	}
	got, err := FromArena(obj.View())
	if err != nil {
		t.Fatal(err)
	}
	if !protomsg.Equal(m, got) {
		t.Error("ToArena/FromArena round trip diverged")
	}
}

func TestToArenaMatchesDeserializer(t *testing.T) {
	// Building from a message must produce a view whose re-serialization
	// equals the message's own canonical encoding — i.e. ToArena and the
	// wire deserializer construct equivalent objects.
	m := bigMessage(t)
	data := m.Marshal(nil)

	need, _ := MeasureMessage(everyLay, m)
	b := abi.NewBuilder(arena.NewBump(make([]byte, need)), 0)
	obj, err := ToArena(b, everyLay, m)
	if err != nil {
		t.Fatal(err)
	}
	out, err := deser.Serialize(obj.View(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("ToArena+Serialize != Marshal:\n got %x\nwant %x", out, data)
	}
}

func TestFromArenaOnDeserializedObject(t *testing.T) {
	m := bigMessage(t)
	data := m.Marshal(nil)
	needW, err := deser.MeasureExact(everyLay, data)
	if err != nil {
		t.Fatal(err)
	}
	bump := arena.NewBump(make([]byte, needW+deser.GuardBytes))
	d := deser.New(deser.Options{ValidateUTF8: true})
	off, err := d.Deserialize(everyLay, data, bump, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := abi.MakeView(&abi.Region{Buf: bump.Bytes()}, off, everyLay)
	got, err := FromArena(v)
	if err != nil {
		t.Fatal(err)
	}
	if !protomsg.Equal(m, got) {
		t.Error("FromArena of a deserialized object diverged from the source message")
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	m := protomsg.New(leafDesc)
	if _, err := MeasureMessage(everyLay, m); err == nil {
		t.Error("MeasureMessage accepted wrong type")
	}
	b := abi.NewBuilder(arena.NewBump(make([]byte, 1024)), 0)
	if _, err := ToArena(b, everyLay, m); err == nil {
		t.Error("ToArena accepted wrong type")
	}
}

func TestEmptyMessage(t *testing.T) {
	m := protomsg.New(everyDesc)
	need, _ := MeasureMessage(everyLay, m)
	b := abi.NewBuilder(arena.NewBump(make([]byte, need)), 0)
	obj, err := ToArena(b, everyLay, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromArena(obj.View())
	if err != nil {
		t.Fatal(err)
	}
	if !protomsg.Equal(m, got) {
		t.Error("empty round trip diverged")
	}
}

func TestArenaExhaustion(t *testing.T) {
	m := bigMessage(t)
	b := abi.NewBuilder(arena.NewBump(make([]byte, 64)), 0)
	if _, err := ToArena(b, everyLay, m); err == nil {
		t.Error("exhausted arena accepted")
	}
}

func TestFromArenaInvalidView(t *testing.T) {
	if _, err := FromArena(abi.View{Reg: abi.Region{}, Lay: everyLay}); err == nil {
		t.Error("invalid view accepted")
	}
}

func TestRandomizedRoundTrips(t *testing.T) {
	rng := mt19937.New(77)
	for trial := 0; trial < 100; trial++ {
		m := protomsg.New(everyDesc)
		if rng.Uint32n(2) == 0 {
			m.SetUint32("u32", rng.Uint32())
		}
		if rng.Uint32n(2) == 0 {
			m.SetString("s", strings.Repeat("x", int(rng.Uint32n(40))))
		}
		n := int(rng.Uint32n(20))
		for i := 0; i < n; i++ {
			m.AppendNum("nums", uint64(rng.Uint32()))
		}
		if rng.Uint32n(3) == 0 {
			k := protomsg.New(leafDesc)
			k.SetUint32("id", rng.Uint32())
			m.SetMessage("child", k)
		}
		need, _ := MeasureMessage(everyLay, m)
		b := abi.NewBuilder(arena.NewBump(make([]byte, need)), 0)
		obj, err := ToArena(b, everyLay, m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := FromArena(obj.View())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !protomsg.Equal(m, got) {
			t.Fatalf("trial %d: round trip diverged", trial)
		}
	}
}

func BenchmarkToArena(b *testing.B) {
	m := bigMessage(b)
	need, _ := MeasureMessage(everyLay, m)
	buf := make([]byte, need)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builder := abi.NewBuilder(arena.NewBump(buf), 0)
		if _, err := ToArena(builder, everyLay, m); err != nil {
			b.Fatal(err)
		}
	}
}

// Package crosstest cross-validates every data path in the repository on
// randomly generated messages: for the same logical message, the standard
// wire round trip (protomsg), the arena deserializer (deser + abi), the
// message<->object converter (objconv) must all agree bit-for-bit. Any divergence between two independently
// implemented paths is a bug in one of them — this is the repository's
// strongest single correctness check.
package crosstest

import (
	"bytes"
	"math"
	"testing"

	"dpurpc/internal/abi"
	"dpurpc/internal/adt"
	"dpurpc/internal/arena"
	"dpurpc/internal/deser"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/objconv"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/protodsl"
	"dpurpc/internal/protomsg"
)

const schema = `
syntax = "proto3";
package x;

enum Kind { KIND_ZERO = 0; KIND_A = 1; KIND_B = 2; }

message Leaf {
  uint32 id = 1;
  string tag = 2;
  bytes blob = 3;
}

message Node {
  bool b = 1;
  int32 i32 = 2;
  sint32 s32 = 3;
  uint32 u32 = 4;
  int64 i64 = 5;
  sint64 s64 = 6;
  uint64 u64 = 7;
  fixed32 f32 = 8;
  fixed64 f64 = 9;
  sfixed32 sf32 = 10;
  sfixed64 sf64 = 11;
  float fl = 12;
  double db = 13;
  string s = 14;
  bytes raw = 15;
  Kind kind = 16;
  Leaf leaf = 17;
  Node child = 18;
  repeated uint32 nums = 19;
  repeated sint64 zig = 20 [packed=false];
  repeated double weights = 21;
  repeated bool flags = 22;
  repeated string names = 23;
  repeated bytes blobs = 24;
  repeated Leaf leaves = 25;
}
`

var (
	table    *adt.Table
	nodeDesc *protodesc.Message
	leafDesc *protodesc.Message
	nodeLay  *abi.Layout
)

func init() {
	f, err := protodsl.Parse("x.proto", schema)
	if err != nil {
		panic(err)
	}
	reg := protodesc.NewRegistry()
	if err := reg.Register(f); err != nil {
		panic(err)
	}
	table, err = adt.Build(reg)
	if err != nil {
		panic(err)
	}
	nodeDesc = reg.Message("x.Node")
	leafDesc = reg.Message("x.Leaf")
	nodeLay = table.ByName("x.Node")
}

// genMessage builds a random message of desc with bounded depth.
func genMessage(rng *mt19937.Source, desc *protodesc.Message, depth int) *protomsg.Message {
	m := protomsg.New(desc)
	for _, f := range desc.Fields {
		if rng.Uint32n(3) == 0 {
			continue // leave ~1/3 of fields unset
		}
		n := 1
		if f.Repeated {
			n = int(rng.Uint32n(6))
		}
		for i := 0; i < n; i++ {
			setRandom(rng, m, f, depth)
		}
	}
	return m
}

func randString(rng *mt19937.Source) string {
	n := int(rng.Uint32n(40))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(' ' + rng.Uint32n(95))
	}
	return string(b)
}

func randBytes(rng *mt19937.Source) []byte {
	n := int(rng.Uint32n(40))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func setRandom(rng *mt19937.Source, m *protomsg.Message, f *protodesc.Field, depth int) {
	bits := rng.Uint64() >> rng.Uint32n(64) // skewed magnitudes
	switch {
	case f.Repeated && f.Kind == protodesc.KindMessage:
		if depth <= 0 {
			return
		}
		var child *protomsg.Message
		if f.Message == leafDesc {
			child = genMessage(rng, leafDesc, 0)
		} else {
			child = genMessage(rng, f.Message, depth-1)
		}
		m.AppendMessage(f.Name, child)
	case f.Repeated && f.Kind == protodesc.KindString:
		m.AppendString(f.Name, randString(rng))
	case f.Repeated && f.Kind == protodesc.KindBytes:
		m.AppendBytes(f.Name, randBytes(rng))
	case f.Repeated:
		switch f.Kind {
		case protodesc.KindBool:
			bits &= 1
		case protodesc.KindFloat:
			bits = uint64(uint32(bits))
		case protodesc.KindUint32, protodesc.KindFixed32, protodesc.KindSint32,
			protodesc.KindInt32, protodesc.KindEnum, protodesc.KindSfixed32:
			bits = uint64(uint32(bits))
		}
		m.AppendNum(f.Name, bits)
	case f.Kind == protodesc.KindMessage:
		if depth <= 0 {
			return
		}
		m.SetMessage(f.Name, genMessage(rng, f.Message, depth-1))
	case f.Kind == protodesc.KindString:
		m.SetString(f.Name, randString(rng))
	case f.Kind == protodesc.KindBytes:
		m.SetBytes(f.Name, randBytes(rng))
	case f.Kind == protodesc.KindBool:
		m.SetBool(f.Name, bits&1 == 1)
	case f.Kind == protodesc.KindFloat:
		m.SetFloat(f.Name, math.Float32frombits(uint32(bits)))
	case f.Kind == protodesc.KindDouble:
		m.SetDouble(f.Name, math.Float64frombits(bits))
	case f.Kind == protodesc.KindEnum:
		m.SetEnum(f.Name, int32(rng.Uint32n(3)))
	case f.Kind == protodesc.KindInt32, f.Kind == protodesc.KindSint32, f.Kind == protodesc.KindSfixed32:
		m.SetInt32(f.Name, int32(uint32(bits)))
	case f.Kind == protodesc.KindUint32, f.Kind == protodesc.KindFixed32:
		m.SetUint32(f.Name, uint32(bits))
	case f.Kind == protodesc.KindInt64, f.Kind == protodesc.KindSint64, f.Kind == protodesc.KindSfixed64:
		m.SetInt64(f.Name, int64(bits))
	default:
		m.SetUint64(f.Name, bits)
	}
}

func TestAllPathsAgree(t *testing.T) {
	rng := mt19937.New(20260706)
	d := deser.New(deser.Options{ValidateUTF8: true})
	plan := deser.PlanFor(nodeLay)
	for trial := 0; trial < 300; trial++ {
		m := genMessage(rng, nodeDesc, 2)

		// Path 1: standard wire round trip.
		wireBytes := m.Marshal(nil)
		viaWire := protomsg.New(nodeDesc)
		if err := viaWire.Unmarshal(wireBytes); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if !protomsg.Equal(m, viaWire) {
			t.Fatalf("trial %d: wire round trip diverged", trial)
		}

		// Path 2: arena deserializer (Scan + Fill) + re-serialization.
		notes, err := d.Scan(plan, wireBytes)
		if err != nil {
			t.Fatalf("trial %d: scan: %v", trial, err)
		}
		bump := arena.NewBump(make([]byte, notes.Need()+deser.GuardBytes))
		off, err := d.Fill(plan, wireBytes, notes, bump, 0)
		notes.Release()
		if err != nil {
			t.Fatalf("trial %d: fill: %v", trial, err)
		}
		view := abi.MakeView(&abi.Region{Buf: bump.Bytes()}, off, nodeLay)
		if err := abi.Verify(view); err != nil {
			t.Fatalf("trial %d: verify: %v", trial, err)
		}
		reser, err := deser.Serialize(view, nil)
		if err != nil {
			t.Fatalf("trial %d: serialize: %v", trial, err)
		}
		if !bytes.Equal(reser, wireBytes) {
			t.Fatalf("trial %d: arena path diverged from wire bytes", trial)
		}

		// Path 3: view -> message (objconv.FromArena).
		lifted, err := objconv.FromArena(view)
		if err != nil {
			t.Fatalf("trial %d: FromArena: %v", trial, err)
		}
		if !protomsg.Equal(m, lifted) {
			t.Fatalf("trial %d: FromArena diverged", trial)
		}

		// Path 4: message -> object (objconv.ToArena) -> serialize.
		mneed, err := objconv.MeasureMessage(nodeLay, m)
		if err != nil {
			t.Fatalf("trial %d: MeasureMessage: %v", trial, err)
		}
		b := abi.NewBuilder(arena.NewBump(make([]byte, mneed)), 0)
		obj, err := objconv.ToArena(b, nodeLay, m)
		if err != nil {
			t.Fatalf("trial %d: ToArena: %v", trial, err)
		}
		objSer, err := deser.Serialize(obj.View(), nil)
		if err != nil {
			t.Fatalf("trial %d: obj serialize: %v", trial, err)
		}
		if !bytes.Equal(objSer, wireBytes) {
			t.Fatalf("trial %d: ToArena path diverged from wire bytes", trial)
		}

		// Text rendering never fails (smoke).
		_ = m.Text()
	}
}

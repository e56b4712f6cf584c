package deser

import (
	"testing"

	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/protodsl"
	"dpurpc/internal/protomsg"
)

// The payload benchmarks compare the two ways a large bytes payload can
// reach the arena object on the planned path: copied through the object
// arena (replayString, one memcpy into the spill area) versus
// scatter-gather (FillSG writes a 16-byte offset reference; PlaceSegments
// is the single memcpy into the segment area, isolated below so the fill's
// O(1) cost is visible). Run with
// go test -bench Payload -benchmem -run '^$' ./internal/deser.

const payloadSchema = `
syntax = "proto3";
package pb;
message Blob { bytes data = 1; }
`

var (
	payloadBlobDesc *protodesc.Message
	payloadBlobLay  *abi.Layout
)

func init() {
	f, err := protodsl.Parse("payload_bench.proto", payloadSchema)
	if err != nil {
		panic(err)
	}
	reg := protodesc.NewRegistry()
	if err := reg.Register(f); err != nil {
		panic(err)
	}
	payloadBlobDesc = reg.Message("pb.Blob")
	payloadBlobLay = abi.ComputeAll([]*protodesc.Message{payloadBlobDesc})[0]
}

func payloadBlobData(n int) []byte {
	rng := mt19937.New(mt19937.DefaultSeed)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(rng.Uint32())
	}
	m := protomsg.New(payloadBlobDesc)
	if err := m.SetBytes("data", buf); err != nil {
		panic(err)
	}
	return m.Marshal(nil)
}

// payloadSizes is the benchmark grid, up to the 1 MiB acceptance point.
var payloadSizes = []struct {
	name string
	n    int
}{
	{"4KiB", 4 << 10},
	{"64KiB", 64 << 10},
	{"1MiB", 1 << 20},
}

// payloadBase keeps the benchmarks off base 0 (no NullRef guard needed),
// matching how the datapath fills at a block's region offset.
const payloadBase = 64

func BenchmarkPayloadCopyFill(b *testing.B) {
	for _, sz := range payloadSizes {
		b.Run(sz.name, func(b *testing.B) {
			data := payloadBlobData(sz.n)
			d := New(Options{})
			p := PlanFor(payloadBlobLay)
			no, err := d.Scan(p, data)
			if err != nil {
				b.Fatal(err)
			}
			defer no.Release()
			bump := arena.NewBump(make([]byte, no.Need()))
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bump.Reset()
				if _, err := d.Fill(p, data, no, bump, payloadBase); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPayloadSGFill(b *testing.B) {
	for _, sz := range payloadSizes {
		b.Run(sz.name, func(b *testing.B) {
			data := payloadBlobData(sz.n)
			d := New(Options{SGPayloadMin: 1024})
			p := PlanFor(payloadBlobLay)
			no, err := d.Scan(p, data)
			if err != nil {
				b.Fatal(err)
			}
			defer no.Release()
			if no.SegCount() != 1 {
				b.Fatalf("SegCount = %d, want 1", no.SegCount())
			}
			objArea := alignUp8(no.Need())
			bump := arena.NewBump(make([]byte, objArea))
			segBase := uint64(payloadBase + objArea)
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bump.Reset()
				if _, err := d.FillSG(p, data, no, bump, payloadBase, segBase); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPayloadSGPlace(b *testing.B) {
	for _, sz := range payloadSizes {
		b.Run(sz.name, func(b *testing.B) {
			data := payloadBlobData(sz.n)
			d := New(Options{SGPayloadMin: 1024})
			p := PlanFor(payloadBlobLay)
			no, err := d.Scan(p, data)
			if err != nil {
				b.Fatal(err)
			}
			defer no.Release()
			segDst := make([]byte, no.SegBytes())
			refs := make([]SegRef, 0, no.SegCount())
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refs = d.PlaceSegments(data, no, segDst, refs[:0])
			}
			if len(refs) != 1 {
				b.Fatalf("refs = %d, want 1", len(refs))
			}
		})
	}
}

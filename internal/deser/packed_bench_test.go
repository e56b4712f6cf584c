package deser

import (
	"slices"
	"testing"

	"dpurpc/internal/arena"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/wire"
	"dpurpc/internal/workload"
)

// The packed-varint benchmarks cycle benchPayloads distinct payloads rather
// than repeating one: on a single repeated payload the branch predictor
// learns the input's byte pattern and flatters branchy decoders. A plain
// wire.Uvarint loop reads 4.4-6.7 ns per element on one repeated
// 4096-element payload, faster than the portable block loop's 9.7-12.4;
// over 64 payloads it reads 17.3-19.1, slower than the block loop's
// 9.1-13.1. The end-to-end ledger also cycles 64.
const benchPayloads = 64

// benchElems is the element count of every benchmark payload, the ledger's
// ints_decode message size.
const benchElems = 4096

// packedPayloads builds n packed varint payloads of benchElems elements each,
// element i drawn by gen.
func packedPayloads(n int, gen func(rng *mt19937.Source) uint64) [][]byte {
	rng := mt19937.New(mt19937.DefaultSeed)
	out := make([][]byte, n)
	for i := range out {
		var p []byte
		for j := 0; j < benchElems; j++ {
			p = wire.AppendVarint(p, gen(rng))
		}
		out[i] = p
	}
	return out
}

// BenchmarkPackedVarints times appendPackedVarints on every kernel this CPU
// runs and on the portable loop, per element, over four payload shapes: the
// ledger's uint32 distribution, negative int64s (every varint 10 bytes),
// zigzag sint32s and bools.
func BenchmarkPackedVarints(b *testing.B) {
	shapes := []struct {
		name string
		w    uint32
		zig  bool
		gen  func(rng *mt19937.Source) uint64
	}{
		{"uint32_ledger", 4, false, func(rng *mt19937.Source) uint64 {
			shift := rng.Uint32n(32)
			return uint64(rng.Uint32() >> shift)
		}},
		{"int64_negative", 8, false, func(rng *mt19937.Source) uint64 {
			return uint64(-1 - int64(rng.Uint32()))
		}},
		{"sint32_zigzag", 4, true, func(rng *mt19937.Source) uint64 {
			shift := rng.Uint32n(32)
			return wire.EncodeZigZag(int64(int32(rng.Uint32()) >> shift))
		}},
		{"bool", 1, false, func(rng *mt19937.Source) uint64 { return uint64(rng.Uint32n(2)) }},
	}
	for _, sh := range shapes {
		payloads := packedPayloads(benchPayloads, sh.gen)
		for _, name := range append(asmKernelNames, portable.name) {
			b.Run(sh.name+"/"+name, func(b *testing.B) {
				kern := portable
				if name != portable.name {
					i := slices.IndexFunc(asmKernels, func(k blockDecoder) bool { return k.name == name })
					if i < 0 {
						b.Skipf("no %s kernel on this CPU", name)
					}
					kern = asmKernels[i]
				}
				useKernel(b, kern)
				longest := 0
				for _, p := range payloads {
					longest = max(longest, len(p))
				}
				dst := make([]byte, 0, longest*int(sh.w))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var ok bool
					if dst, ok = appendPackedVarints(dst[:0], payloads[i%benchPayloads], sh.w, sh.zig); !ok {
						b.Fatal("rejected")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchElems), "ns/elem")
			})
		}
	}
}

// BenchmarkPlannedInts4096 is the ledger's ints_decode decode: Scan + Fill of
// 64 distinct GenInts(4096) messages on the kernel in use.
func BenchmarkPlannedInts4096(b *testing.B) {
	env := workload.NewEnv()
	rng := mt19937.New(mt19937.DefaultSeed)
	msgs := make([][]byte, benchPayloads)
	need := 0
	for i := range msgs {
		msgs[i] = env.GenInts(rng, benchElems).Marshal(nil)
		n, err := MeasureExact(env.IntsLay, msgs[i])
		if err != nil {
			b.Fatal(err)
		}
		need = max(need, n)
	}
	bump := arena.NewBump(make([]byte, need+GuardBytes))
	d := New(Options{ValidateUTF8: true})
	p := PlanFor(env.IntsLay)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := msgs[i%benchPayloads]
		no, err := d.Scan(p, data)
		if err != nil {
			b.Fatal(err)
		}
		bump.Reset()
		if _, err := d.Fill(p, data, no, bump, 0); err != nil {
			b.Fatal(err)
		}
		no.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchElems), "ns/elem")
}

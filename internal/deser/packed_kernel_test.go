package deser

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dpurpc/internal/mt19937"
	"dpurpc/internal/wire"
)

// packedKind is the element form of one t.Packed field.
type packedKind struct {
	name string
	w    uint32
	zig  bool
}

// packedKinds lists every field of t.Packed with its element width and
// zigzag flag, as the plan resolves them.
func packedKinds() []packedKind {
	p := PlanFor(packedLay)
	var kinds []packedKind
	for _, fl := range packedLay.Fields {
		a := p.lookup(fl.Desc.Number)
		kinds = append(kinds, packedKind{fl.Desc.Name, a.elem, a.zig})
	}
	return kinds
}

// uvarintLoop is the reference packed decode: wire.Uvarint element by
// element, stored with writeSlot.
func uvarintLoop(dst, src []byte, w uint32, zig bool) ([]byte, bool) {
	for len(src) > 0 {
		v, n := wire.Uvarint(src)
		if n <= 0 {
			return dst, false
		}
		if zig {
			v = uint64(wire.DecodeZigZag(v))
		}
		var slot [8]byte
		writeSlot(slot[:w], w, v)
		dst = append(dst, slot[:w]...)
		src = src[n:]
	}
	return dst, true
}

// asmKernelNames lists every assembly kernel some CPU runs, fastest first.
var asmKernelNames = []string{"avx512", "bmi2"}

// portable is the portable block loop as a blockDecoder (decode nil).
var portable = blockDecoder{name: "portable"}

// useKernel runs the package on kern until tb ends.
func useKernel(tb testing.TB, kern blockDecoder) {
	k := blockKernel
	blockKernel = kern.decode
	tb.Cleanup(func() { blockKernel = k })
}

// supportedKernels returns the assembly kernels this CPU runs and logs
// every one it skips.
func supportedKernels(tb testing.TB) []blockDecoder {
	for _, name := range asmKernelNames {
		if !slices.ContainsFunc(asmKernels, func(k blockDecoder) bool { return k.name == name }) {
			tb.Logf("kernel %s skipped: this CPU does not run it (needs amd64 with BMI1 and BMI2, AMD family >= 0x19; avx512 also AVX512F, BW, VBMI and VBMI2 with OS-saved ZMM state)", name)
		}
	}
	return asmKernels
}

// appendOn is appendPackedVarints on kern.
func appendOn(kern blockDecoder, dst, src []byte, w uint32, zig bool) ([]byte, bool) {
	k := blockKernel
	blockKernel = kern.decode
	defer func() { blockKernel = k }()
	return appendPackedVarints(dst, src, w, zig)
}

// kernelDiff holds the scratch of one kernel-versus-portable comparison.
type kernelDiff struct{ kern, port []byte }

// blockOffset is the slot offset the block decoders are entered with, so a
// store that ignores o shows.
const blockOffset = 3

// check enters kern and the portable loop at src[start] and requires the
// same (o, start) and the same bytes across the whole output capacity,
// which is poisoned beforehand so that a stray store shows.
func (d *kernelDiff) check(t testing.TB, kern blockDecoder, name string, src []byte, start int, k packedKind) {
	size := blockOffset + (len(src)-start)*int(k.w)
	if cap(d.kern) < size {
		d.kern, d.port = make([]byte, size), make([]byte, size)
	}
	kb, pb := d.kern[:size:size], d.port[:size:size]
	for i := range kb {
		kb[i], pb[i] = 0xa5, 0xa5
	}
	ko, ks := kern.decode(kb, blockOffset, src, start, k.w, k.zig)
	po, ps := decodeBlocksGo(pb, blockOffset, src, start, k.w, k.zig)
	if ko != po || ks != ps {
		t.Fatalf("%s %s start %d: %s (o %d, start %d), portable (o %d, start %d) (% x)",
			name, k.name, start, kern.name, ko, ks, po, ps, src)
	}
	if !bytes.Equal(kb, pb) {
		t.Fatalf("%s %s start %d: %s bytes\n% x\nportable\n% x\n(% x)", name, k.name, start, kern.name, kb, pb, src)
	}
}

// checkAppend requires appendPackedVarints, on every kernel of kerns and on
// the portable loop, to accept exactly what uvarintLoop accepts, with the
// same bytes after a non-empty prefix.
func checkAppend(t testing.TB, kerns []blockDecoder, name string, src []byte, k packedKind) {
	prefix := []byte{0xee, 0xee, 0xee}
	want, wantOK := uvarintLoop(append([]byte(nil), prefix...), src, k.w, k.zig)
	for _, kern := range append(kerns[:len(kerns):len(kerns)], portable) {
		got, ok := appendOn(kern, append([]byte(nil), prefix...), src, k.w, k.zig)
		if ok != wantOK {
			t.Fatalf("%s %s on %s: accept %v, wire.Uvarint loop %v (% x)", name, k.name, kern.name, ok, wantOK, src)
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("%s %s on %s: bytes\n% x\nwant\n% x", name, k.name, kern.name, got, want)
		}
	}
}

// randomPackedPayloads returns, for every length 0-300, two payloads: random
// bytes, and a run of random-length varints (1-10 bytes, the 10th byte 0-3,
// so some are invalid) cut to that length.
func randomPackedPayloads() [][]byte {
	rng := mt19937.New(mt19937.DefaultSeed)
	var out [][]byte
	for n := 0; n <= 300; n++ {
		raw := make([]byte, n)
		for i := range raw {
			raw[i] = byte(rng.Uint32())
		}
		var run []byte
		for len(run) < n {
			ln := 1 + int(rng.Uint32n(wire.MaxVarintLen))
			groups := make([]byte, ln)
			for i := range groups {
				groups[i] = byte(rng.Uint32n(128))
			}
			if ln == wire.MaxVarintLen {
				groups[ln-1] = byte(rng.Uint32n(4))
			}
			run = append(run, encodeGroups(groups)...)
		}
		out = append(out, raw, run[:n])
	}
	return out
}

// TestPackedKernelDifferential runs every kernel this CPU supports and the
// portable block loop side by side on every payload of
// TestPackedVarintBoundaries and TestPackedVarintMalformed and on random
// payloads of every length 0-300 entered at every start 0-63, for every
// kind of t.Packed, and checks appendPackedVarints against a plain
// wire.Uvarint loop on all of them.
func TestPackedKernelDifferential(t *testing.T) {
	var fixed []packedCase
	fixed = append(fixed, packedBoundaryCases(mt19937.New(mt19937.DefaultSeed))...)
	mal := malformedPayload()
	for cut := 0; cut <= len(mal); cut++ {
		fixed = append(fixed, packedCase{fmt.Sprintf("malformed cut at %d", cut), mal[:cut]})
	}
	fixed = append(fixed, badVarintCases()...)
	fixed = append(fixed, overlongRunCases()...)
	random := randomPackedPayloads()
	kerns := supportedKernels(t)

	for _, k := range packedKinds() {
		for _, c := range fixed {
			checkAppend(t, kerns, c.name, c.payload, k)
		}
		for i, src := range random {
			checkAppend(t, kerns, fmt.Sprintf("random %d", i), src, k)
		}
	}
	var d kernelDiff
	for _, kern := range kerns {
		for _, k := range packedKinds() {
			for _, c := range fixed {
				d.check(t, kern, c.name, c.payload, 0, k)
			}
			for i, src := range random {
				for start := 0; start < 64 && start <= len(src); start++ {
					d.check(t, kern, fmt.Sprintf("random %d", i), src, start, k)
				}
			}
		}
	}
}

// overlongRunCases returns payloads whose varint after a short lead runs
// 11-300 bytes, so that it ends up to four blocks after it starts: the
// kernels must stop at it however far back its start lies.
func overlongRunCases() []packedCase {
	var cases []packedCase
	for _, lead := range []int{0, 5, 37} {
		for n := wire.MaxVarintLen + 1; n <= 300; n++ {
			payload := append(packedFiller(lead), bytes.Repeat([]byte{0xff}, n-1)...)
			payload = append(append(payload, 0x01), packedFiller(80)...)
			cases = append(cases, packedCase{fmt.Sprintf("%d-byte varint at lead %d", n, lead), payload})
		}
	}
	return cases
}

// straddleSeeds returns fuzz payloads in which one varint of every length
// 2-10 straddles the boundary between the first two blocks at every split,
// among one-byte varints, plus one with a lone 9-byte varint inside each of
// the first two blocks. Each is long enough that both blocks decode.
func straddleSeeds() [][]byte {
	fill := func(p []byte) []byte {
		for len(p) < 2*64+blockSpan {
			p = append(p, 0x01)
		}
		return p
	}
	var out [][]byte
	for n := 2; n <= wire.MaxVarintLen; n++ {
		v := bytes.Repeat([]byte{0xff}, n)
		v[n-1] = 0x01
		for before := 1; before < n; before++ {
			out = append(out, fill(append(bytes.Repeat([]byte{0x01}, 64-before), v...)))
		}
	}
	nine := bytes.Repeat([]byte{0x81}, 9)
	nine[8] = 0x7f
	for _, at := range []int{20, 64 + 20} {
		out = append(out, fill(append(bytes.Repeat([]byte{0x02}, at), nine...)))
	}
	return out
}

// FuzzPackedVarints is the packed decoder's differential fuzz target: kind
// picks the t.Packed field (kind mod 8) and the block decoders' entry offset
// (kind / 8, at most len(payload)). Every kernel this CPU supports must
// agree with the portable loop, and appendPackedVarints must agree with a
// wire.Uvarint loop on all of them. Its seed corpus
// (testdata/fuzz/FuzzPackedVarints, and straddleSeeds at every kind) runs
// in go test.
func FuzzPackedVarints(f *testing.F) {
	f.Add([]byte{0x01, 0x96, 0x01}, uint8(0))
	kinds := packedKinds()
	for _, p := range straddleSeeds() {
		for k := range kinds {
			f.Add(p, uint8(k))
		}
	}
	kerns := supportedKernels(f)
	var d kernelDiff
	f.Fuzz(func(t *testing.T, payload []byte, kind uint8) {
		k := kinds[int(kind)%len(kinds)]
		checkAppend(t, kerns, "fuzz", payload, k)
		for _, kern := range kerns {
			d.check(t, kern, "fuzz", payload, min(int(kind)/len(kinds), len(payload)), k)
		}
	})
}

package deser

import (
	"bytes"
	"fmt"
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

// appendPortable is appendPackedVarints on the portable block loop.
func appendPortable(dst, src []byte, w uint32, zig bool) ([]byte, bool) {
	k := blockKernel
	blockKernel = nil
	defer func() { blockKernel = k }()
	return appendPackedVarints(dst, src, w, zig)
}

// kernelDiff holds the scratch of one kernel-versus-portable comparison.
type kernelDiff struct{ kern, port []byte }

// blockOffset is the slot offset the block decoders are entered with, so a
// store that ignores o shows.
const blockOffset = 3

// check enters both decodeBlocks implementations at src[start] and requires
// the same (o, start) and the same bytes across the whole output capacity,
// which is poisoned beforehand so that a stray store shows.
func (d *kernelDiff) check(t testing.TB, name string, src []byte, start int, k packedKind) {
	size := blockOffset + (len(src)-start)*int(k.w)
	if cap(d.kern) < size {
		d.kern, d.port = make([]byte, size), make([]byte, size)
	}
	kern, port := d.kern[:size:size], d.port[:size:size]
	for i := range kern {
		kern[i], port[i] = 0xa5, 0xa5
	}
	ko, ks := blockKernel(kern, blockOffset, src, start, k.w, k.zig)
	po, ps := decodeBlocksGo(port, blockOffset, src, start, k.w, k.zig)
	if ko != po || ks != ps {
		t.Fatalf("%s %s start %d: kernel (o %d, start %d), portable (o %d, start %d) (% x)",
			name, k.name, start, ko, ks, po, ps, src)
	}
	if !bytes.Equal(kern, port) {
		t.Fatalf("%s %s start %d: kernel bytes\n% x\nportable\n% x\n(% x)", name, k.name, start, kern, port, src)
	}
}

// checkAppend requires appendPackedVarints, on the kernel in use and on the
// portable loop, to accept exactly what uvarintLoop accepts, with the same
// bytes after a non-empty prefix.
func checkAppend(t testing.TB, name string, src []byte, k packedKind) {
	prefix := []byte{0xee, 0xee, 0xee}
	want, wantOK := uvarintLoop(append([]byte(nil), prefix...), src, k.w, k.zig)
	for _, impl := range []struct {
		name string
		f    func(dst, src []byte, w uint32, zig bool) ([]byte, bool)
	}{{Kernel(), appendPackedVarints}, {"portable", appendPortable}} {
		got, ok := impl.f(append([]byte(nil), prefix...), src, k.w, k.zig)
		if ok != wantOK {
			t.Fatalf("%s %s on %s: accept %v, wire.Uvarint loop %v (% x)", name, k.name, impl.name, ok, wantOK, src)
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("%s %s on %s: bytes\n% x\nwant\n% x", name, k.name, impl.name, got, want)
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

// TestPackedKernelDifferential runs the BMI2 kernel and the portable block
// loop side by side on every payload of TestPackedVarintBoundaries and
// TestPackedVarintMalformed and on random payloads of every length 0-300
// entered at every start 0-63, for every kind of t.Packed, and checks
// appendPackedVarints against a plain wire.Uvarint loop on both.
func TestPackedKernelDifferential(t *testing.T) {
	var fixed []packedCase
	fixed = append(fixed, packedBoundaryCases(mt19937.New(mt19937.DefaultSeed))...)
	mal := malformedPayload()
	for cut := 0; cut <= len(mal); cut++ {
		fixed = append(fixed, packedCase{fmt.Sprintf("malformed cut at %d", cut), mal[:cut]})
	}
	fixed = append(fixed, badVarintCases()...)
	random := randomPackedPayloads()

	for _, k := range packedKinds() {
		for _, c := range fixed {
			checkAppend(t, c.name, c.payload, k)
		}
		for i, src := range random {
			checkAppend(t, fmt.Sprintf("random %d", i), src, k)
		}
	}
	if blockKernel == nil {
		t.Skip("kernel half skipped: this CPU runs the portable loop (needs amd64 with BMI1 and BMI2, and AMD family >= 0x19)")
	}
	var d kernelDiff
	for _, k := range packedKinds() {
		for _, c := range fixed {
			d.check(t, c.name, c.payload, 0, k)
		}
		for i, src := range random {
			for start := 0; start < 64 && start <= len(src); start++ {
				d.check(t, fmt.Sprintf("random %d", i), src, start, k)
			}
		}
	}
}

// FuzzPackedVarints is the packed decoder's differential fuzz target: kind
// picks the t.Packed field (kind mod 8) and the block decoders' entry offset
// (kind / 8, at most len(payload)). The kernel and the portable loop must
// agree, and appendPackedVarints must agree with a wire.Uvarint loop. Its
// seed corpus (testdata/fuzz/FuzzPackedVarints) runs in go test.
func FuzzPackedVarints(f *testing.F) {
	f.Add([]byte{0x01, 0x96, 0x01}, uint8(0))
	kinds := packedKinds()
	var d kernelDiff
	f.Fuzz(func(t *testing.T, payload []byte, kind uint8) {
		k := kinds[int(kind)%len(kinds)]
		checkAppend(t, "fuzz", payload, k)
		if blockKernel != nil {
			d.check(t, "fuzz", payload, min(int(kind)/len(kinds), len(payload)), k)
		}
	})
}

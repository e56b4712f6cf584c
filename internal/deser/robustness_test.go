package deser

import (
	"bytes"
	"strings"
	"testing"

	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protomsg"
)

// TestMutationRobustness flips, truncates, and splices bytes of valid wire
// messages and feeds the result to the decoder the DPU runs: ScanWithin +
// Fill, and ScanWithin + FillSG + Segments with scatter-gather payloads at
// SGPayloadMin 16. The DPU terminates untrusted client connections, so
// arbitrary bytes must never panic, never overrun the arena, and either fail
// cleanly or produce an object that can be read and re-serialized without
// fault.
func TestMutationRobustness(t *testing.T) {
	rng := mt19937.New(20240706)

	// A corpus of valid encodings across all message shapes.
	var corpus [][]byte
	small := protomsg.New(smallDesc)
	small.SetUint32("id", 99)
	small.SetBool("flag", true)
	small.SetFloat("ratio", 1.25)
	corpus = append(corpus, small.Marshal(nil))

	every := protomsg.New(everyDesc)
	every.SetString("s", "mutate me")
	every.SetInt64("i64", -12345)
	child := protomsg.New(smallDesc)
	child.SetUint32("id", 5)
	every.SetMessage("child", child)
	for i := 0; i < 30; i++ {
		every.AppendNum("nums", uint64(i))
	}
	every.AppendString("names", "abcdefghijklmnopqrstuvwxyz")
	kid := protomsg.New(smallDesc)
	kid.SetUint32("id", 7)
	every.AppendMessage("kids", kid)
	corpus = append(corpus, every.Marshal(nil))

	ints := protomsg.New(intArrDesc)
	for i := 0; i < 64; i++ {
		ints.AppendNum("values", uint64(i)<<uint(i%20))
	}
	corpus = append(corpus, ints.Marshal(nil))

	// Singular payloads of at least SGPayloadMin, for the SG decode below.
	payloads := protomsg.New(everyDesc)
	payloads.SetString("s", strings.Repeat("segment ", 5))
	payloads.SetBytes("raw", bytes.Repeat([]byte{0xa5}, 100))
	payloads.SetUint32("u32", 77)
	corpus = append(corpus, payloads.Marshal(nil))

	layouts := []*abi.Layout{smallLay, everyLay, intArrLay}

	mutate := func(src []byte) []byte {
		out := append([]byte(nil), src...)
		switch rng.Uint32n(5) {
		case 0: // single bit flip
			if len(out) > 0 {
				i := int(rng.Uint32n(uint32(len(out))))
				out[i] ^= 1 << rng.Uint32n(8)
			}
		case 1: // truncate
			if len(out) > 1 {
				out = out[:rng.Uint32n(uint32(len(out)))]
			}
		case 2: // byte overwrite run
			if len(out) > 0 {
				start := int(rng.Uint32n(uint32(len(out))))
				for i := start; i < len(out) && i < start+8; i++ {
					out[i] = byte(rng.Uint32())
				}
			}
		case 3: // splice a chunk of another corpus entry
			other := corpus[rng.Uint32n(uint32(len(corpus)))]
			if len(other) > 0 && len(out) > 0 {
				i := int(rng.Uint32n(uint32(len(out))))
				out = append(out[:i:i], other[int(rng.Uint32n(uint32(len(other)))):]...)
			}
		case 4: // prepend garbage varint tags
			out = append([]byte{byte(rng.Uint32()), byte(rng.Uint32())}, out...)
		}
		return out
	}

	// Accepted objects must be fully traversable, structurally verifiable,
	// and serializable.
	accepted := func(trial int, region *abi.Region, off uint64, lay *abi.Layout) []byte {
		v := abi.MakeView(region, off, lay)
		if !v.Valid() {
			t.Fatalf("trial %d: accepted object fails validation", trial)
		}
		if err := abi.Verify(v); err != nil {
			t.Fatalf("trial %d: accepted object fails Verify: %v", trial, err)
		}
		out, err := Serialize(v, nil)
		if err != nil {
			t.Fatalf("trial %d: accepted object cannot re-serialize: %v", trial, err)
		}
		return out
	}

	const maxNeed = 1 << 20
	buf := make([]byte, maxNeed)
	sgBuf := make([]byte, 2*maxNeed)
	d := New(Options{ValidateUTF8: true})
	ds := New(Options{ValidateUTF8: true, SGPayloadMin: 16})
	for trial := 0; trial < 5000; trial++ {
		src := corpus[rng.Uint32n(uint32(len(corpus)))]
		lay := layouts[rng.Uint32n(uint32(len(layouts)))]
		p := PlanFor(lay)
		data := mutate(src)

		no, err := d.ScanWithin(p, data, maxNeed)
		if err != nil {
			continue // rejected by the scan: correct behaviour for garbage
		}
		if no.Need()+GuardBytes > len(buf) {
			// Implausibly large demand from garbage must still be bounded
			// by the input (objects + arrays derive from wire content).
			t.Fatalf("trial %d: Scan demanded %d bytes for %d input bytes",
				trial, no.Need(), len(data))
		}
		bump := arena.NewBump(buf[:no.Need()+GuardBytes])
		off, err := d.Fill(p, data, no, bump, 0)
		no.Release()
		if err != nil {
			t.Fatalf("trial %d: Fill fails on scanned input: %v", trial, err)
		}
		inline := accepted(trial, &abi.Region{Buf: bump.Bytes()}, off, lay)

		// The same bytes through the scatter-gather decode, laid out as
		// the DPU lays a slot out: a table, the object area, then the
		// segment area.
		ns, err := ds.ScanWithin(p, data, maxNeed)
		if err != nil {
			t.Fatalf("trial %d: SG scan rejects input the inline scan accepts: %v", trial, err)
		}
		const sgBase = 64
		segBase := sgBase + alignUp8(ns.Need())
		sbump := arena.NewBump(sgBuf[sgBase:segBase])
		soff, err := ds.FillSG(p, data, ns, sbump, sgBase, uint64(segBase))
		if err != nil {
			t.Fatalf("trial %d: FillSG fails on scanned input: %v", trial, err)
		}
		segs := sgBuf[segBase : segBase+ns.SegBytes()]
		for _, r := range ds.Segments(data, ns, segs, nil) {
			copy(segs[r.Off:], r.Src)
		}
		ns.Release()
		if sg := accepted(trial, &abi.Region{Buf: sgBuf}, soff, lay); !bytes.Equal(sg, inline) {
			t.Fatalf("trial %d: SG object re-serializes differently from the inline one", trial)
		}
	}
}

// TestScanDemandBounded: Scan's Need must be linear in the input (objects
// and arrays all derive from wire bytes), so a small message can never
// request an enormous arena.
func TestScanDemandBounded(t *testing.T) {
	rng := mt19937.New(7)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Uint32n(200)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		for _, lay := range []*abi.Layout{smallLay, everyLay, intArrLay, deepLay} {
			need, err := measureBase0(lay, data)
			if err != nil {
				continue
			}
			// Worst case per wire byte: a one-byte nested message field can
			// cost an object (~max layout size + padding). Bound generously.
			bound := (len(data) + 2) * (int(lay.Size) + 64)
			if need > bound {
				t.Fatalf("trial %d: %d input bytes demand %d arena bytes", trial, len(data), need)
			}
		}
	}
}

package deser

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dpurpc/internal/mt19937"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/wire"
)

// packedLeads are the element offsets a target varint is placed at inside
// its packed payload: every offset in the first 16 bytes (every position
// relative to an 8-byte word) and the same sweep across the first two
// 64-byte block boundaries of the planned decoder.
func packedLeads() []int {
	var leads []int
	for _, from := range []int{0, 56, 120} {
		for i := 0; i < 16; i++ {
			leads = append(leads, from+i)
		}
	}
	return leads
}

// encodeGroups encodes one varint from its 7-bit groups, low group first:
// len(groups) bytes, continuation bits on all but the last. Zero high groups
// make a valid non-canonical encoding.
func encodeGroups(groups []byte) []byte {
	b := make([]byte, len(groups))
	for i, g := range groups {
		b[i] = g & 0x7f
		if i < len(groups)-1 {
			b[i] |= 0x80
		}
	}
	return b
}

// packedFiller is n one-byte varints with varying values.
func packedFiller(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*37+11) & 0x7f
	}
	return b
}

// packedRecord wraps payload as the packed record of Packed field num.
func packedRecord(num int32, payload []byte) []byte {
	return wire.AppendBytes(wire.AppendTag(nil, num, wire.TypeBytes), payload)
}

// checkPacked runs the FuzzPlannedDecode oracle on data as a Packed message
// and requires a single-defect reject to carry ErrMalformed on both decoders
// or neither. It returns the interpretive decoder's error.
func checkPacked(t *testing.T, buf *decodeBuffers, name string, data []byte) error {
	t.Helper()
	ierr, perr := buf.check(t, name, packedLay, PlanFor(packedLay), data)
	if errors.Is(ierr, ErrMalformed) != errors.Is(perr, ErrMalformed) {
		t.Fatalf("%s: interpretive err %v, planned err %v (% x)", name, ierr, perr, data)
	}
	return ierr
}

// packedCase is one packed payload with the name its checks report.
type packedCase struct {
	name    string
	payload []byte
}

// packedBoundaryCases places a varint of every length 1–10 at every offset
// of packedLeads, in the middle of a packed payload and as its last element;
// each length takes two 7-bit-group patterns (all ones, and random with
// non-canonical zero high groups), the random one drawn from rng.
func packedBoundaryCases(rng *mt19937.Source) []packedCase {
	var cases []packedCase
	for ln := 1; ln <= wire.MaxVarintLen; ln++ {
		ones := bytes.Repeat([]byte{0x7f}, ln)
		random := make([]byte, ln)
		for i := range random {
			random[i] = byte(rng.Uint32n(128))
		}
		if ln == wire.MaxVarintLen {
			// The 10th byte carries bit 63 only.
			ones[ln-1], random[ln-1] = 1, random[ln-1]&1
		}
		for _, groups := range [][]byte{ones, random} {
			target := encodeGroups(groups)
			for _, lead := range packedLeads() {
				mid := append(append(packedFiller(lead), target...), packedFiller(80)...)
				last := append(packedFiller(lead), target...)
				for _, payload := range [][]byte{mid, last} {
					cases = append(cases, packedCase{fmt.Sprintf("len %d lead %d of %d", ln, lead, len(payload)), payload})
				}
			}
		}
	}
	return cases
}

// TestPackedVarintBoundaries runs packedBoundaryCases for every packed
// varint kind: every payload must be accepted, decode to the interpretive
// arena byte for byte, and agree with protomsg.
func TestPackedVarintBoundaries(t *testing.T) {
	rng := mt19937.New(mt19937.DefaultSeed)
	buf := newDecodeBuffers()
	for _, fl := range packedLay.Fields {
		num := fl.Desc.Number
		for _, c := range packedBoundaryCases(rng) {
			name := fmt.Sprintf("%s %s", fl.Desc.Name, c.name)
			data := packedRecord(num, c.payload)
			if err := checkPacked(t, buf, name, data); err != nil {
				t.Fatalf("%s: rejected: %v", name, err)
			}
			// The oracle compares with protomsg only where
			// protomsg accepts; here it must.
			if err := protomsg.New(packedDesc).Unmarshal(data); err != nil {
				t.Fatalf("%s: protomsg rejects: %v", name, err)
			}
		}
	}
}

// malformedPayload is every varint length twice over, past the first block
// boundary; TestPackedVarintMalformed cuts it at every byte.
func malformedPayload() []byte {
	var payload []byte
	for rep := 0; rep < 2; rep++ {
		for ln := 1; ln <= wire.MaxVarintLen; ln++ {
			groups := bytes.Repeat([]byte{0x55}, ln)
			groups[ln-1] = 1
			payload = append(payload, encodeGroups(groups)...)
		}
	}
	return payload
}

// badVarintCases places an 11-byte overlong varint and a 10-byte varint
// whose 10th byte is 2 at every offset of packedLeads, mid-payload and last.
func badVarintCases() []packedCase {
	overlong := append(bytes.Repeat([]byte{0xff}, wire.MaxVarintLen), 0x01)
	tenth := append(bytes.Repeat([]byte{0x80}, wire.MaxVarintLen-1), 0x02)
	var cases []packedCase
	for _, bad := range [][]byte{overlong, tenth} {
		for _, lead := range packedLeads() {
			mid := append(append(packedFiller(lead), bad...), packedFiller(80)...)
			last := append(packedFiller(lead), bad...)
			for _, payload := range [][]byte{mid, last} {
				cases = append(cases, packedCase{fmt.Sprintf("bad varint % x at lead %d of %d", bad, lead, len(payload)), payload})
			}
		}
	}
	return cases
}

// TestPackedVarintMalformed: truncation at every byte, an 11-byte overlong
// varint, and a 10th byte >= 2 must be rejected (or, where a cut falls on a
// varint boundary, accepted) identically by both decoders.
func TestPackedVarintMalformed(t *testing.T) {
	buf := newDecodeBuffers()
	payload := malformedPayload()
	for _, fl := range packedLay.Fields {
		num := fl.Desc.Number
		// (An empty record is the all-empty-packed rejection, pinned by
		// TestPlannedErrorParity.)
		for cut := 1; cut <= len(payload); cut++ {
			name := fmt.Sprintf("%s payload cut at %d", fl.Desc.Name, cut)
			err := checkPacked(t, buf, name, packedRecord(num, payload[:cut]))
			if ends := payload[cut-1] < 0x80; ends != (err == nil) {
				t.Fatalf("%s: err %v, want reject = %v", name, err, !ends)
			}
		}
		whole := packedRecord(num, payload)
		for cut := 0; cut < len(whole); cut++ {
			name := fmt.Sprintf("%s record cut at %d", fl.Desc.Name, cut)
			if err := checkPacked(t, buf, name, whole[:cut]); err == nil && cut > 0 {
				t.Fatalf("%s: truncated record accepted", name)
			}
		}
		for _, c := range badVarintCases() {
			name := fmt.Sprintf("%s %s", fl.Desc.Name, c.name)
			if err := checkPacked(t, buf, name, packedRecord(num, c.payload)); !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s: err %v, want ErrMalformed", name, err)
			}
		}
	}
}

// ScanWithin refuses, typed, a packed run whose elements exceed its bound
// before decoding it, and accepts one that fits even where the worst case
// the decoder reserves (one element per payload byte) does not.
func TestScanWithinBoundsPackedElems(t *testing.T) {
	p := PlanFor(intArrLay)
	d := New(Options{})
	ones := packedRecord(1, bytes.Repeat([]byte{0x01}, 1000)) // 4000 element bytes
	if _, err := d.ScanWithin(p, ones, 3999); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("1000 uint32 elements within 3999 bytes: err %v, want ErrTooLarge", err)
	}
	var wide []byte
	for i := 0; i < 1000; i++ {
		wide = wire.AppendVarint(wide, 1<<20) // 3 bytes each: worst case 12000
	}
	for _, data := range [][]byte{ones, packedRecord(1, wide)} {
		no, err := d.ScanWithin(p, data, 4000)
		if err != nil {
			t.Fatalf("1000 uint32 elements within 4000 bytes: %v", err)
		}
		no.Release()
	}
}

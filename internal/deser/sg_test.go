package deser

import (
	"bytes"
	"strings"
	"testing"

	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/protomsg"
)

// Scatter-gather note tests: the SGPayloadMin threshold decision, the
// bypass/zero-length corners, and byte-identity of the offset-referenced
// object against the copy-fill object. The end-to-end framing (SG tables on
// the wire, both datapath directions) is covered in internal/offload and
// internal/rpcrdma; here we pin the deserializer-level contract those layers
// build on.

// sgFill lays out a region the way the datapath does —
// [base pad][object area][payload segments] — and runs the SG pipeline
// (Scan, FillSG, PlaceSegments) over it. It returns the root view and the
// placed segment refs. base is fixed off 0 so no NullRef guard is needed.
func sgFill(t *testing.T, d *Deserializer, lay *abi.Layout, data []byte) (abi.View, []SegRef, *Notes) {
	t.Helper()
	const base = 64
	p := PlanFor(lay)
	no, err := d.Scan(p, data)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	objArea := alignUp8(no.Need())
	buf := make([]byte, base+objArea+no.SegBytes())
	bump := arena.NewBump(buf[base : base+objArea])
	segBase := uint64(base + objArea)
	off, err := d.FillSG(p, data, no, bump, base, segBase)
	if err != nil {
		t.Fatalf("FillSG: %v", err)
	}
	refs := d.PlaceSegments(data, no, buf[segBase:], nil)
	return abi.MakeView(&abi.Region{Buf: buf}, off, lay), refs, no
}

// TestSGThresholdStraddle: only payloads of at least SGPayloadMin become
// segments — min-1 stays inline, min and min+1 ride as segments, and the
// segment area is 8-aligned per payload.
func TestSGThresholdStraddle(t *testing.T) {
	const min = 256 // comfortably above SmallFastPathMax/4 so no bypass at min-1
	cases := []struct {
		name     string
		n        int
		segs     int
		segBytes int
	}{
		{"UnderMin", min - 1, 0, 0},
		{"AtMin", min, 1, alignUp8(min)},
		{"OverMin", min + 1, 1, alignUp8(min + 1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := protomsg.New(charDesc)
			m.SetString("data", strings.Repeat("x", c.n))
			data := m.Marshal(nil)

			d := New(Options{SGPayloadMin: min})
			no, err := d.Scan(PlanFor(charLay), data)
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			defer no.Release()
			if no.SegCount() != c.segs || no.SegBytes() != c.segBytes {
				t.Fatalf("SegCount/SegBytes = %d/%d, want %d/%d",
					no.SegCount(), no.SegBytes(), c.segs, c.segBytes)
			}
			if c.segs > 0 {
				// The segment payload must not be charged to the object
				// area: the SG Need is the inline Need minus the spill.
				inl, err := measureBase0(charLay, data)
				if err != nil {
					t.Fatalf("Scan: %v", err)
				}
				if no.Need() >= inl-GuardBytes {
					t.Fatalf("SG Need %d not smaller than inline need %d", no.Need(), inl-GuardBytes)
				}
			}
		})
	}
}

// TestSGSmallMessageBypass: a simple-layout message under SmallFastPathMax
// takes the scan-bypass fast path even with SG enabled — the payload stays
// inline (SegCount 0) and the fill is byte-identical to the SG-disabled
// decode. The datapath relies on this: tiny messages never grow an SG table.
func TestSGSmallMessageBypass(t *testing.T) {
	m := protomsg.New(charDesc)
	m.SetString("data", strings.Repeat("y", 20)) // >= min, but wire size < SmallFastPathMax
	data := m.Marshal(nil)

	d := New(Options{SGPayloadMin: 16})
	no, err := d.Scan(PlanFor(charLay), data)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	defer no.Release()
	if !no.Bypass() {
		t.Fatal("small simple message did not take the scan bypass")
	}
	if no.SegCount() != 0 || no.SegBytes() != 0 {
		t.Fatalf("bypass notes carry segments: %d/%d", no.SegCount(), no.SegBytes())
	}

	buf := make([]byte, 64+no.Need())
	bump := arena.NewBump(buf[64:])
	off, err := d.Fill(PlanFor(charLay), data, no, bump, 64)
	if err != nil {
		t.Fatalf("Fill: %v", err)
	}
	v := abi.MakeView(&abi.Region{Buf: buf}, off, charLay)
	got, err := Serialize(v, nil)
	if err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	want, err := Serialize(roundTrip(t, charLay, data), nil)
	if err != nil {
		t.Fatalf("Serialize inline: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bypass fill with SG enabled diverges from inline decode")
	}
}

// TestSGZeroLengthPayload: a present-but-empty payload never becomes a
// segment regardless of threshold. Raw wire bytes force the empty field
// (protomsg omits empty proto3 fields), on a non-simple layout so the scan
// actually runs.
func TestSGZeroLengthPayload(t *testing.T) {
	data := []byte{0x72, 0x00} // field 14 (s), wire type bytes, length 0
	d := New(Options{ValidateUTF8: true, SGPayloadMin: 1})
	no, err := d.Scan(PlanFor(everyLay), data)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	defer no.Release()
	if no.SegCount() != 0 || no.SegBytes() != 0 {
		t.Fatalf("zero-length payload produced segments: %d/%d", no.SegCount(), no.SegBytes())
	}
}

// TestSGMixedInlineAndSegments: one message with two SG-eligible payloads
// (singular string + bytes over the threshold), an under-threshold string,
// repeated strings (never SG), and scalars. The SG-filled object must
// re-serialize byte-identical to the copy-filled object, the placed refs
// must match note order with 8-aligned packing and zeroed padding, and the
// byte accounting must split cleanly between CopyBytes and RefBytes.
func TestSGMixedInlineAndSegments(t *testing.T) {
	const min = 256
	sPay := strings.Repeat("s", min+43) // SG'd, unaligned length
	rawPay := bytes.Repeat([]byte{0xa5}, 2*min)

	m := protomsg.New(everyDesc)
	m.SetString("s", sPay)
	m.SetBytes("raw", rawPay)
	m.SetUint32("u32", 77)
	m.AppendString("names", strings.Repeat("n", min)) // repeated: stays inline
	m.AppendNum("nums", 5)
	child := protomsg.New(smallDesc)
	child.SetUint32("id", 9)
	m.SetMessage("child", child)
	data := m.Marshal(nil)

	d := New(Options{ValidateUTF8: true, SGPayloadMin: min})
	v, refs, no := sgFill(t, d, everyLay, data)
	defer no.Release()

	if no.SegCount() != 2 {
		t.Fatalf("SegCount = %d, want 2 (s and raw)", no.SegCount())
	}
	if len(refs) != 2 {
		t.Fatalf("refs = %d, want 2", len(refs))
	}
	// Note order is wire order: s (field 14) then raw (field 15), packed
	// back to back at 8-byte alignment.
	if refs[0].FieldNum != 14 || refs[0].Off != 0 || int(refs[0].Len) != len(sPay) {
		t.Fatalf("refs[0] = %+v", refs[0])
	}
	if refs[1].FieldNum != 15 || int(refs[1].Off) != alignUp8(len(sPay)) || int(refs[1].Len) != len(rawPay) {
		t.Fatalf("refs[1] = %+v", refs[1])
	}
	if d.Stats.RefBytes != uint64(len(sPay)+len(rawPay)) {
		t.Fatalf("RefBytes = %d, want %d", d.Stats.RefBytes, len(sPay)+len(rawPay))
	}

	if err := abi.Verify(v); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := v.StrName("s"); string(got) != sPay {
		t.Fatalf("s reads back %d bytes, want %d", len(got), len(sPay))
	}
	if got := v.StrName("raw"); !bytes.Equal(got, rawPay) {
		t.Fatalf("raw reads back %d bytes, want %d", len(got), len(rawPay))
	}

	got, err := Serialize(v, nil)
	if err != nil {
		t.Fatalf("Serialize SG view: %v", err)
	}
	want, err := Serialize(roundTrip(t, everyLay, data), nil)
	if err != nil {
		t.Fatalf("Serialize inline view: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("SG object re-serializes differently from copy-fill object")
	}
	ref := protomsg.New(everyDesc)
	if err := ref.Unmarshal(got); err != nil {
		t.Fatalf("reference rejects SG re-serialization: %v", err)
	}
	if !protomsg.Equal(m, ref) {
		t.Fatal("SG round trip disagrees with original message")
	}
}

// TestSGNotesReusable: the same notes drive PlaceSegments and multiple
// FillSG calls (the datapath places once, then may refill on retry paths);
// every pass must agree.
func TestSGNotesReusable(t *testing.T) {
	const min = 256
	m := protomsg.New(charDesc)
	m.SetString("data", strings.Repeat("z", 3*min))
	data := m.Marshal(nil)

	const base = 64
	d := New(Options{SGPayloadMin: min})
	p := PlanFor(charLay)
	no, err := d.Scan(p, data)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	defer no.Release()
	objArea := alignUp8(no.Need())
	buf := make([]byte, base+objArea+no.SegBytes())
	bump := arena.NewBump(buf[base : base+objArea])
	segBase := uint64(base + objArea)
	d.PlaceSegments(data, no, buf[segBase:], nil)

	var first []byte
	for pass := 0; pass < 3; pass++ {
		bump.Reset()
		off, err := d.FillSG(p, data, no, bump, base, segBase)
		if err != nil {
			t.Fatalf("pass %d FillSG: %v", pass, err)
		}
		v := abi.MakeView(&abi.Region{Buf: buf}, off, charLay)
		out, err := Serialize(v, nil)
		if err != nil {
			t.Fatalf("pass %d Serialize: %v", pass, err)
		}
		if pass == 0 {
			first = out
			if !bytes.Equal(out, data) {
				t.Fatal("SG round trip not byte-identical to input")
			}
		} else if !bytes.Equal(out, first) {
			t.Fatalf("pass %d diverges from pass 0", pass)
		}
	}
}

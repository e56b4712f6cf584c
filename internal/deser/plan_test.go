package deser

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/wire"
	"dpurpc/internal/workload"
)

// planShapes returns one representative message per benchmark layout,
// exercising every action kind the compiler emits.
func planShapes() []struct {
	name string
	lay  *abi.Layout
	data []byte
} {
	rng := mt19937.New(mt19937.DefaultSeed)

	small := protomsg.New(smallDesc)
	small.SetUint32("id", 4242)
	small.SetBool("flag", true)
	small.SetInt32("delta", -17)
	small.SetFloat("ratio", 0.75)

	ints := protomsg.New(intArrDesc)
	for i := 0; i < 512; i++ {
		shift := rng.Uint32n(32)
		ints.AppendNum("values", uint64(rng.Uint32()>>shift))
	}

	chars := protomsg.New(charDesc)
	chars.SetString("data", strings.Repeat("abcdefgh", 1000))

	every := protomsg.New(everyDesc)
	every.SetBool("b", true)
	every.SetInt32("s32", -77)
	every.SetUint64("u64", 1<<60)
	every.SetUint32("f32", 0xcafebabe)
	every.SetDouble("db", -2.25)
	every.SetString("s", strings.Repeat("spill", 10))
	every.SetBytes("raw", bytes.Repeat([]byte{7}, 100))
	child := protomsg.New(smallDesc)
	child.SetUint32("id", 5)
	every.SetMessage("child", child)
	for i := 0; i < 50; i++ {
		every.AppendNum("nums", uint64(i*7))
	}
	every.AppendNum("zig", ^uint64(2)) // -3 as two's complement
	for i := 0; i < 9; i++ {
		every.AppendNum("stamps", uint64(1)<<uint(i*7))
	}
	every.AppendNum("flags", 1)
	every.AppendString("names", "tiny")
	every.AppendString("names", strings.Repeat("long", 10))
	every.AppendString("names", "")
	for i := 0; i < 3; i++ {
		k := protomsg.New(smallDesc)
		k.SetUint32("id", uint32(100+i))
		every.AppendMessage("kids", k)
	}

	deep := protomsg.New(deepDesc)
	deep.SetUint32("n", 0)
	for i := 1; i < 20; i++ {
		next := protomsg.New(deepDesc)
		next.SetUint32("n", uint32(i))
		next.SetMessage("inner", deep)
		deep = next
	}

	env := workload.NewEnv()
	return []struct {
		name string
		lay  *abi.Layout
		data []byte
	}{
		{"Small", smallLay, small.Marshal(nil)},
		{"IntArray", intArrLay, ints.Marshal(nil)},
		{"CharArray", charLay, chars.Marshal(nil)},
		{"Everything", everyLay, every.Marshal(nil)},
		{"Deep", deepLay, deep.Marshal(nil)},
		// The ledger's ints_decode message: 4096 packed uint32s, ~11 KB.
		{"Ints4096", env.IntsLay, env.GenInts(rng, 4096).Marshal(nil)},
	}
}

// TestPlannedByteIdentity is the tentpole pin: for every shape and at both a
// zero and a nonzero region base, the planned Scan+Fill must produce an
// arena byte-identical to the interpretive Deserialize, the same root
// offset, and an exact Need.
func TestPlannedByteIdentity(t *testing.T) {
	for _, c := range planShapes() {
		for _, base := range []uint64{0, 4096} {
			need, err := MeasureExact(c.lay, c.data)
			if err != nil {
				t.Fatalf("%s: MeasureExact: %v", c.name, err)
			}
			guard := 0
			if base == 0 {
				guard = GuardBytes
			}
			di := New(Options{ValidateUTF8: true})
			bi := arena.NewBump(make([]byte, need+guard))
			ioff, err := di.Deserialize(c.lay, c.data, bi, base)
			if err != nil {
				t.Fatalf("%s: Deserialize: %v", c.name, err)
			}

			p := PlanFor(c.lay)
			dp := New(Options{ValidateUTF8: true})
			no, err := dp.Scan(p, c.data)
			if err != nil {
				t.Fatalf("%s: Scan: %v", c.name, err)
			}
			if no.Need() != need {
				t.Fatalf("%s: Need %d != MeasureExact %d", c.name, no.Need(), need)
			}
			bp := arena.NewBump(make([]byte, no.Need()+guard))
			poff, err := dp.Fill(p, c.data, no, bp, base)
			no.Release()
			if err != nil {
				t.Fatalf("%s: Fill: %v", c.name, err)
			}
			if poff != ioff {
				t.Fatalf("%s base %d: root offset %d != interpretive %d", c.name, base, poff, ioff)
			}
			if !bytes.Equal(bp.Bytes(), bi.Bytes()) {
				t.Fatalf("%s base %d: planned arena diverges from interpretive", c.name, base)
			}
			if bp.Used() != bi.Used() {
				t.Fatalf("%s base %d: used %d != interpretive %d", c.name, base, bp.Used(), bi.Used())
			}

			// DeserializePlanned (the fused entry point) must agree too.
			df := New(Options{ValidateUTF8: true})
			bf := arena.NewBump(make([]byte, need+guard))
			foff, err := df.DeserializePlanned(p, c.data, bf, base)
			if err != nil {
				t.Fatalf("%s: DeserializePlanned: %v", c.name, err)
			}
			if foff != ioff || !bytes.Equal(bf.Bytes(), bi.Bytes()) {
				t.Fatalf("%s base %d: DeserializePlanned diverges", c.name, base)
			}
		}
	}
}

// TestPlannedStatsParity: the single pass must charge exactly the cycle-model
// inputs the interpretive path charged, plus the two new fields that tell
// the model decoded work from replayed work apart.
func TestPlannedStatsParity(t *testing.T) {
	for _, c := range planShapes() {
		need, err := measureBase0(c.lay, c.data)
		if err != nil {
			t.Fatal(err)
		}
		di := New(Options{ValidateUTF8: true})
		bi := arena.NewBump(make([]byte, need))
		if _, err := di.Deserialize(c.lay, c.data, bi, 0); err != nil {
			t.Fatal(err)
		}
		dp := New(Options{ValidateUTF8: true})
		bp := arena.NewBump(make([]byte, need))
		if _, err := dp.DeserializePlanned(PlanFor(c.lay), c.data, bp, 0); err != nil {
			t.Fatal(err)
		}
		is, ps := di.Stats, dp.Stats
		if ps.VarintBytes != is.VarintBytes || ps.FixedBytes != is.FixedBytes ||
			ps.UTF8Bytes != is.UTF8Bytes || ps.Fields != is.Fields ||
			ps.Messages != is.Messages || ps.ArenaBytes != is.ArenaBytes {
			t.Errorf("%s: planned stats %+v diverge from interpretive %+v", c.name, ps, is)
		}
		if ps.CopyBytes > is.CopyBytes {
			t.Errorf("%s: planned CopyBytes %d > interpretive %d", c.name, ps.CopyBytes, is.CopyBytes)
		}
		if ps.ScannedBytes != uint64(len(c.data)) {
			t.Errorf("%s: ScannedBytes = %d, want %d", c.name, ps.ScannedBytes, len(c.data))
		}
		if is.ScannedBytes != 0 || is.ReplayedBytes != 0 {
			t.Errorf("%s: interpretive path charged scan/replay bytes: %+v", c.name, is)
		}
	}
}

// TestPlannedErrorParity: on single-defect inputs the planned scan must
// report the same sentinel error the interpretive path reports. (Inputs
// with several independent defects may legitimately report them in a
// different order; see the package comment in plan.go.)
func TestPlannedErrorParity(t *testing.T) {
	overDeep := protomsg.New(deepDesc)
	overDeep.SetUint32("n", 0)
	for i := 0; i < DefaultMaxDepth+5; i++ {
		next := protomsg.New(deepDesc)
		next.SetMessage("inner", overDeep)
		overDeep = next
	}
	dupChild := func() []byte {
		child := protomsg.New(smallDesc)
		child.SetUint32("id", 1)
		m := protomsg.New(everyDesc)
		m.SetMessage("child", child)
		one := m.Marshal(nil)
		return append(append([]byte{}, one...), one...)
	}()

	cases := []struct {
		name string
		lay  *abi.Layout
		data []byte
		want error
	}{
		{"truncated tag", everyLay, []byte{0x80}, ErrMalformed},
		{"invalid tag", everyLay, []byte{0x00}, wire.ErrInvalidTag},
		{"wire type mismatch", everyLay, append(wire.AppendTag(nil, 1, wire.TypeFixed64), 1, 2, 3, 4, 5, 6, 7, 8), ErrWireTypeMismatch},
		{"duplicate child", everyLay, dupChild, ErrDuplicateSubfield},
		{"depth exceeded", deepLay, overDeep.Marshal(nil), ErrDepthExceeded},
		{"truncated packed varint", intArrLay, append(wire.AppendTag(nil, 1, wire.TypeBytes), 0x01, 0x80), ErrMalformed},
		{"all-empty packed records", intArrLay, append(wire.AppendTag(nil, 1, wire.TypeBytes), 0x00), ErrElementCountChange},
		{"invalid utf8", charLay, append(wire.AppendTag(nil, 1, wire.TypeBytes), 0x02, 0xff, 0xfe), wire.ErrInvalidUTF8},
		{"truncated string", charLay, append(wire.AppendTag(nil, 1, wire.TypeBytes), 0x7f, 'x'), ErrMalformed},
		{"group on unknown field", everyLay, wire.AppendTag(nil, 99, wire.TypeStartGroup), wire.ErrGroupEncoded},
	}
	for _, c := range cases {
		di := New(Options{ValidateUTF8: true})
		bump := arena.NewBump(make([]byte, 1<<16))
		_, ierr := di.Deserialize(c.lay, c.data, bump, 0)
		if ierr == nil {
			t.Errorf("%s: interpretive accepted", c.name)
			continue
		}
		if !errors.Is(ierr, c.want) {
			t.Errorf("%s: interpretive err = %v, want %v", c.name, ierr, c.want)
		}
		dp := New(Options{ValidateUTF8: true})
		no, perr := dp.Scan(PlanFor(c.lay), c.data)
		if perr == nil {
			no.Release()
			t.Errorf("%s: planned scan accepted", c.name)
			continue
		}
		if !errors.Is(perr, c.want) {
			t.Errorf("%s: planned err = %v, want %v", c.name, perr, c.want)
		}
	}
}

// TestPlanForCache: repeated lookups return the identical compiled plan and
// allocate nothing, and sub-plans are shared with their layouts' own plans.
func TestPlanForCache(t *testing.T) {
	p1 := PlanFor(everyLay)
	p2 := PlanFor(everyLay)
	if p1 != p2 {
		t.Fatal("PlanFor returned distinct plans for one layout")
	}
	if p1.Layout() != everyLay {
		t.Fatal("Plan.Layout mismatch")
	}
	var childAct *action
	for i := range p1.acts {
		if p1.acts[i].fld.Name == "child" {
			childAct = &p1.acts[i]
		}
	}
	if childAct == nil || childAct.sub == nil {
		t.Fatal("child action missing sub-plan")
	}
	if childAct.sub != PlanFor(childAct.sub.Layout()) {
		t.Fatal("sub-plan not shared with the cache")
	}
	if allocs := testing.AllocsPerRun(100, func() { PlanFor(everyLay) }); allocs != 0 {
		t.Errorf("cached PlanFor allocates %.1f objects/op", allocs)
	}
}

// TestPlannedZeroAllocSteadyState: satellite 4 — the full planned hot path
// (cached plan lookup, scan into owned scratch, fill) must be zero-alloc
// once capacities are warm.
func TestPlannedZeroAllocSteadyState(t *testing.T) {
	for _, c := range planShapes() {
		need, err := measureBase0(c.lay, c.data)
		if err != nil {
			t.Fatal(err)
		}
		bump := arena.NewBump(make([]byte, need))
		d := New(Options{ValidateUTF8: true})
		if _, err := d.DeserializePlanned(PlanFor(c.lay), c.data, bump, 0); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			bump.Reset()
			if _, err := d.DeserializePlanned(PlanFor(c.lay), c.data, bump, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: planned steady state allocates %.1f objects/op; paper requires 0", c.name, allocs)
		}
	}
}

// TestScanFillPooledZeroAlloc: the split Scan/Fill flow the DPU pipeline
// uses (pooled notes handed between stages) must also be allocation-free at
// steady state, including the notes' packed-varint element stream at the
// ledger's 4096-element shape.
func TestScanFillPooledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the pin holds only in normal builds")
	}
	for _, c := range planShapes() {
		if c.name != "Everything" && c.name != "Ints4096" {
			continue
		}
		need, err := measureBase0(c.lay, c.data)
		if err != nil {
			t.Fatal(err)
		}
		bump := arena.NewBump(make([]byte, need))
		d := New(Options{ValidateUTF8: true})
		p := PlanFor(c.lay)
		run := func() {
			bump.Reset()
			no, err := d.Scan(p, c.data)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Fill(p, c.data, no, bump, 0); err != nil {
				t.Fatal(err)
			}
			no.Release()
		}
		run() // warm pool and scratch capacities
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s: pooled scan/fill allocates %.1f objects/op", c.name, allocs)
		}
	}
}

// FuzzPlannedDecode is the satellite-3 differential fuzzer: for arbitrary
// bytes the planned path must accept exactly the inputs the interpretive
// path accepts, and on acceptance produce a byte-identical arena; accepted
// objects must agree with the protomsg reference implementation.
func FuzzPlannedDecode(f *testing.F) {
	m := protomsg.New(everyDesc)
	m.SetString("s", "seed")
	m.SetUint32("u32", 7)
	child := protomsg.New(smallDesc)
	child.SetUint32("id", 1)
	m.SetMessage("child", child)
	m.AppendNum("nums", 5)
	m.AppendString("names", strings.Repeat("n", 40))
	f.Add(m.Marshal(nil))

	ia := protomsg.New(intArrDesc)
	for i := 0; i < 20; i++ {
		ia.AppendNum("values", uint64(i)<<uint(i))
	}
	f.Add(ia.Marshal(nil))

	ca := protomsg.New(charDesc)
	ca.SetString("data", "fuzz seed data: ascii only")
	f.Add(ca.Marshal(nil))

	f.Add([]byte{})
	f.Add([]byte{0x08, 0x96, 0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x0a, 0x00})

	// The checked-in corpus (testdata/fuzz/FuzzPlannedDecode) adds packed
	// varints straddling 8-byte words and 64-byte blocks, 9- and 10-byte
	// varints at the payload tail, and truncated or overlong packed records.
	layouts := []*abi.Layout{smallLay, everyLay, intArrLay, charLay, deepLay, packedLay}
	plans := make([]*Plan, len(layouts))
	for i, lay := range layouts {
		plans[i] = PlanFor(lay)
	}
	buf := newDecodeBuffers()
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, lay := range layouts {
			buf.check(t, lay.Msg.Name, lay, plans[i], data)
		}
	})
}

// decodeBuffers is the scratch one differential check decodes into.
type decodeBuffers struct{ interp, planned, fused, sg []byte }

func newDecodeBuffers() *decodeBuffers {
	return &decodeBuffers{make([]byte, 1<<20), make([]byte, 1<<20), make([]byte, 1<<20), make([]byte, 2<<20)}
}

// check is FuzzPlannedDecode's oracle for one input and layout: the planned
// split (Scan + Fill), fused (DeserializePlanned) and scatter-gather paths
// must accept exactly what the interpretive decoder accepts and, on
// acceptance, build its arena byte for byte; the object must agree with
// protomsg whenever protomsg accepts the input. Failures are reported under
// name. It returns the interpretive and planned errors (both nil, unchecked,
// past the scratch size).
func (b *decodeBuffers) check(t *testing.T, name string, lay *abi.Layout, p *Plan, data []byte) (ierr, perr error) {
	t.Helper()
	var ioff uint64
	var bi *arena.Bump
	need, ierr := MeasureExact(lay, data)
	if ierr == nil {
		if need+GuardBytes > len(b.interp) {
			return nil, nil // bounded-demand asserted elsewhere
		}
		di := New(Options{ValidateUTF8: true})
		bi = arena.NewBump(b.interp[:need+GuardBytes])
		ioff, ierr = di.Deserialize(lay, data, bi, 0)
	}

	dp := New(Options{ValidateUTF8: true})
	no, perr := dp.Scan(p, data)
	var poff uint64
	var bp *arena.Bump
	if perr == nil {
		if no.Need() != need && ierr == nil {
			t.Fatalf("%s: Need %d != MeasureExact %d", name, no.Need(), need)
		}
		bp = arena.NewBump(b.planned[:no.Need()+GuardBytes])
		poff, perr = dp.Fill(p, data, no, bp, 0)
		no.Release()
	}

	if (ierr == nil) != (perr == nil) {
		t.Fatalf("%s: accept/reject divergence: interpretive %v, planned %v", name, ierr, perr)
	}

	// The fused DeserializePlanned entry must make the same accept/reject
	// decision — for simple layouts under SmallFastPathMax this drives the
	// scan-bypass fast path's own validation.
	dd := New(Options{ValidateUTF8: true})
	var bd *arena.Bump
	if ierr == nil {
		bd = arena.NewBump(b.fused[:need+GuardBytes])
	} else {
		bd = arena.NewBump(b.fused)
	}
	doff, derr := dd.DeserializePlanned(p, data, bd, 0)
	if (ierr == nil) != (derr == nil) {
		t.Fatalf("%s: fused accept/reject divergence: interpretive %v, fused %v", name, ierr, derr)
	}
	if ierr != nil {
		return ierr, perr
	}
	if poff != ioff || !bytes.Equal(bp.Bytes(), bi.Bytes()) {
		t.Fatalf("%s: planned arena diverges from interpretive", name)
	}
	if doff != ioff || !bytes.Equal(bd.Bytes(), bi.Bytes()) {
		t.Fatalf("%s: fused arena diverges from interpretive", name)
	}

	// protomsg reference: if the one-copy reference decoder accepts the
	// input, the arena object must re-serialize to bytes the reference
	// decodes to an equal message.
	v := abi.MakeView(&abi.Region{Buf: bp.Bytes()}, poff, lay)
	if err := abi.Verify(v); err != nil {
		t.Fatalf("%s: accepted object fails Verify: %v", name, err)
	}
	reser, err := Serialize(v, nil)
	if err != nil {
		t.Fatalf("%s: accepted object cannot re-serialize: %v", name, err)
	}
	ref := protomsg.New(lay.Msg)
	if ref.Unmarshal(data) == nil {
		ref2 := protomsg.New(lay.Msg)
		if err := ref2.Unmarshal(reser); err != nil {
			t.Fatalf("%s: reference rejects re-serialized bytes: %v", name, err)
		}
		if !protomsg.Equal(ref, ref2) {
			t.Fatalf("%s: arena object disagrees with protomsg reference", name)
		}
	}

	// Scatter-gather leg: with a low threshold the SG scan must make the
	// same accept decision, and the descriptor-backed object (FillSG +
	// PlaceSegments) must re-serialize to the same bytes as the copy-fill
	// object.
	ds := New(Options{ValidateUTF8: true, SGPayloadMin: 16})
	ns, serr := ds.Scan(p, data)
	if serr != nil {
		t.Fatalf("%s: SG scan rejects input the inline scan accepts: %v", name, serr)
	}
	defer ns.Release()
	const sgBase = 64
	objArea := alignUp8(ns.Need())
	if sgBase+objArea+ns.SegBytes() > len(b.sg) {
		return nil, nil
	}
	bs := arena.NewBump(b.sg[sgBase : sgBase+objArea])
	soff, serr := ds.FillSG(p, data, ns, bs, sgBase, uint64(sgBase+objArea))
	if serr != nil {
		t.Fatalf("%s: FillSG fails on scanned input: %v", name, serr)
	}
	refs := ds.PlaceSegments(data, ns, b.sg[sgBase+objArea:sgBase+objArea+ns.SegBytes()], nil)
	if len(refs) != ns.SegCount() {
		t.Fatalf("%s: placed %d refs, notes say %d", name, len(refs), ns.SegCount())
	}
	sv := abi.MakeView(&abi.Region{Buf: b.sg}, soff, lay)
	if err := abi.Verify(sv); err != nil {
		t.Fatalf("%s: SG object fails Verify: %v", name, err)
	}
	sser, err := Serialize(sv, nil)
	if err != nil {
		t.Fatalf("%s: SG object cannot re-serialize: %v", name, err)
	}
	if !bytes.Equal(sser, reser) {
		t.Fatalf("%s: SG object re-serializes differently from copy-fill object", name)
	}
	return nil, nil
}

// TestScanBypassShape: simple layouts under SmallFastPathMax must take the
// scan-bypass fast path — Notes with no replay stream, Fill running the
// fused loop — on the split entry points, and the fused DeserializePlanned
// must agree, staying byte-identical to the interpretive decoder including
// wire-order string spills past SSO capacity and unknown-field skips.
func TestScanBypassShape(t *testing.T) {
	spilly := protomsg.New(charDesc)
	spilly.SetString("data", strings.Repeat("spill-me!", 8))
	unknown := append(smallData(), wire.AppendTag(nil, 99, wire.TypeVarint)...)
	unknown = append(unknown, 0x7f)
	big := protomsg.New(charDesc)
	big.SetString("data", strings.Repeat("x", SmallFastPathMax+1))

	cases := []struct {
		name   string
		lay    *abi.Layout
		data   []byte
		bypass bool
	}{
		{"Small", smallLay, smallData(), true},
		{"CharSpill", charLay, spilly.Marshal(nil), true},
		{"UnknownField", smallLay, unknown, true},
		{"OverThreshold", charLay, big.Marshal(nil), false},
		{"NonSimple", everyLay, smallData()[:0], false},
	}
	for _, c := range cases {
		if got := PlanFor(c.lay).Simple(); got != (c.lay != everyLay) {
			t.Fatalf("%s: Plan.Simple() = %v", c.name, got)
		}
		for _, base := range []uint64{0, 4096} {
			need, err := MeasureExact(c.lay, c.data)
			if err != nil {
				t.Fatalf("%s: MeasureExact: %v", c.name, err)
			}
			guard := 0
			if base == 0 {
				guard = GuardBytes
			}
			di := New(Options{ValidateUTF8: true})
			bi := arena.NewBump(make([]byte, need+guard))
			ioff, err := di.Deserialize(c.lay, c.data, bi, base)
			if err != nil {
				t.Fatalf("%s: Deserialize: %v", c.name, err)
			}

			p := PlanFor(c.lay)
			dp := New(Options{ValidateUTF8: true})
			no, err := dp.Scan(p, c.data)
			if err != nil {
				t.Fatalf("%s: Scan: %v", c.name, err)
			}
			if no.Bypass() != c.bypass {
				t.Fatalf("%s: Bypass() = %v, want %v", c.name, no.Bypass(), c.bypass)
			}
			if no.Need() != need {
				t.Fatalf("%s: Need %d != MeasureExact %d", c.name, no.Need(), need)
			}
			bp := arena.NewBump(make([]byte, need+guard))
			poff, err := dp.Fill(p, c.data, no, bp, base)
			no.Release()
			if err != nil {
				t.Fatalf("%s: Fill: %v", c.name, err)
			}
			if poff != ioff || !bytes.Equal(bp.Bytes(), bi.Bytes()) {
				t.Fatalf("%s base %d: bypass fill diverges from interpretive", c.name, base)
			}

			df := New(Options{ValidateUTF8: true})
			bf := arena.NewBump(make([]byte, need+guard))
			foff, err := df.DeserializePlanned(p, c.data, bf, base)
			if err != nil {
				t.Fatalf("%s: DeserializePlanned: %v", c.name, err)
			}
			if foff != ioff || !bytes.Equal(bf.Bytes(), bi.Bytes()) {
				t.Fatalf("%s base %d: fused decode diverges from interpretive", c.name, base)
			}
		}
	}
}

// TestScanBypassErrorParity: the fast path's validation (both the split
// scanSimple and the fused charge-mode loop) must report the interpretive
// sentinels on defective small inputs.
func TestScanBypassErrorParity(t *testing.T) {
	cases := []struct {
		name string
		lay  *abi.Layout
		data []byte
		want error
	}{
		{"truncated tag", smallLay, []byte{0x80}, ErrMalformed},
		{"invalid tag", smallLay, []byte{0x00}, wire.ErrInvalidTag},
		{"wire type mismatch", smallLay, append(wire.AppendTag(nil, 1, wire.TypeFixed64), 1, 2, 3, 4, 5, 6, 7, 8), ErrWireTypeMismatch},
		{"invalid utf8", charLay, append(wire.AppendTag(nil, 1, wire.TypeBytes), 0x02, 0xff, 0xfe), wire.ErrInvalidUTF8},
		{"truncated string", charLay, append(wire.AppendTag(nil, 1, wire.TypeBytes), 0x7f, 'x'), ErrMalformed},
		{"truncated scalar", smallLay, wire.AppendTag(nil, 1, wire.TypeVarint), ErrMalformed},
	}
	for _, c := range cases {
		p := PlanFor(c.lay)
		d := New(Options{ValidateUTF8: true})
		if no, err := d.Scan(p, c.data); err == nil {
			no.Release()
			t.Errorf("%s: bypass scan accepted", c.name)
		} else if !errors.Is(err, c.want) {
			t.Errorf("%s: bypass scan err = %v, want %v", c.name, err, c.want)
		}
		df := New(Options{ValidateUTF8: true})
		bump := arena.NewBump(make([]byte, 1<<12))
		if _, err := df.DeserializePlanned(p, c.data, bump, 0); err == nil {
			t.Errorf("%s: fused decode accepted", c.name)
		} else if !errors.Is(err, c.want) {
			t.Errorf("%s: fused err = %v, want %v", c.name, err, c.want)
		}
	}
}

// benchInterpSized measures the interpretive datapath unit of work — exact
// sizing followed by decode, the measure→count→fill triple walk both offload
// paths ran before plans. benchPlanned below is its compiled replacement
// (DeserializePlanned sizes and decodes in one scan), so SizedX vs PlannedX
// pairs are the like-for-like decode-throughput comparison.
func benchInterpSized(b *testing.B, lay *abi.Layout, data []byte) {
	b.Helper()
	need, err := MeasureExact(lay, data)
	if err != nil {
		b.Fatal(err)
	}
	bump := arena.NewBump(make([]byte, need+GuardBytes))
	d := New(Options{ValidateUTF8: true})
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MeasureExact(lay, data); err != nil {
			b.Fatal(err)
		}
		bump.Reset()
		if _, err := d.Deserialize(lay, data, bump, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPlanned(b *testing.B, lay *abi.Layout, data []byte) {
	b.Helper()
	need, err := MeasureExact(lay, data)
	if err != nil {
		b.Fatal(err)
	}
	bump := arena.NewBump(make([]byte, need+GuardBytes))
	d := New(Options{ValidateUTF8: true})
	p := PlanFor(lay)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bump.Reset()
		if _, err := d.DeserializePlanned(p, data, bump, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func ints512Data() []byte {
	rng := mt19937.New(mt19937.DefaultSeed)
	m := protomsg.New(intArrDesc)
	for i := 0; i < 512; i++ {
		shift := rng.Uint32n(32)
		m.AppendNum("values", uint64(rng.Uint32()>>shift))
	}
	return m.Marshal(nil)
}

func chars8000Data() []byte {
	m := protomsg.New(charDesc)
	m.SetString("data", strings.Repeat("abcdefgh", 1000))
	return m.Marshal(nil)
}

func smallData() []byte {
	m := protomsg.New(smallDesc)
	m.SetUint32("id", 4242)
	m.SetBool("flag", true)
	m.SetInt32("delta", -17)
	m.SetFloat("ratio", 0.75)
	return m.Marshal(nil)
}

func BenchmarkSizedInts512(b *testing.B)   { benchInterpSized(b, intArrLay, ints512Data()) }
func BenchmarkSizedChars8000(b *testing.B) { benchInterpSized(b, charLay, chars8000Data()) }
func BenchmarkSizedSmall(b *testing.B)     { benchInterpSized(b, smallLay, smallData()) }
func BenchmarkSizedNames200(b *testing.B)  { benchInterpSized(b, everyLay, namesData()) }

func BenchmarkPlannedInts512(b *testing.B)   { benchPlanned(b, intArrLay, ints512Data()) }
func BenchmarkPlannedChars8000(b *testing.B) { benchPlanned(b, charLay, chars8000Data()) }
func BenchmarkPlannedSmall(b *testing.B)     { benchPlanned(b, smallLay, smallData()) }

// namesData is the string-heavy workload: many short repeated strings, the
// shape where interpretive per-field dispatch dominates.
func namesData() []byte {
	m := protomsg.New(everyDesc)
	for i := 0; i < 200; i++ {
		m.AppendString("names", strings.Repeat("s", 3+i%20))
	}
	return m.Marshal(nil)
}

func BenchmarkDeserializeNames200(b *testing.B) {
	data := namesData()
	need, _ := measureBase0(everyLay, data)
	bump := arena.NewBump(make([]byte, need))
	d := New(Options{ValidateUTF8: true})
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bump.Reset()
		if _, err := d.Deserialize(everyLay, data, bump, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlannedNames200(b *testing.B) {
	benchPlanned(b, everyLay, namesData())
}

package workload

import (
	"testing"

	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/deser"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/wire"
)

func env(t testing.TB) *Env {
	t.Helper()
	return NewEnv()
}

// arenaDecode decodes data as the datapath does (Scan + Fill) into an arena
// of exactly the size the scan reports, and returns the arena and the root
// object's offset.
func arenaDecode(t *testing.T, lay *abi.Layout, data []byte) (*arena.Bump, uint64) {
	t.Helper()
	d := deser.New(deser.Options{ValidateUTF8: true})
	plan := deser.PlanFor(lay)
	notes, err := d.Scan(plan, data)
	if err != nil {
		t.Fatalf("%s: scan: %v", lay.Msg.Name, err)
	}
	defer notes.Release()
	bump := arena.NewBump(make([]byte, notes.Need()+deser.GuardBytes))
	off, err := d.Fill(plan, data, notes, bump, 0)
	if err != nil {
		t.Fatalf("%s: fill: %v", lay.Msg.Name, err)
	}
	return bump, off
}

func TestSmallWireSizeIs15Bytes(t *testing.T) {
	// Sec. VI-C3: "the serialized small message takes 15 bytes on the wire".
	e := env(t)
	rng := mt19937.New(mt19937.DefaultSeed)
	for i := 0; i < 200; i++ {
		m := e.GenSmall(rng)
		if got := len(m.Marshal(nil)); got != SmallWireSize {
			t.Fatalf("iteration %d: small wire size = %d, want %d", i, got, SmallWireSize)
		}
	}
}

func TestSmallObjectSizeIs40Bytes(t *testing.T) {
	// Sec. VI-C3: "the deserialized object size is 40 bytes".
	e := env(t)
	if e.SmallLay.Size != SmallObjectSize {
		t.Fatalf("small object size = %d, want %d", e.SmallLay.Size, SmallObjectSize)
	}
}

func TestCalibratedIntsWireSizeIs276Bytes(t *testing.T) {
	// Sec. VI-C3: "a serialized size of only 276 bytes".
	e := env(t)
	rng := mt19937.New(mt19937.DefaultSeed)
	for i := 0; i < 50; i++ {
		m := e.GenIntsCalibrated(rng)
		if got := len(m.Marshal(nil)); got != CalibratedIntsWireSize {
			t.Fatalf("iteration %d: ints wire size = %d, want %d", i, got, CalibratedIntsWireSize)
		}
		if got := len(m.Nums("values")); got != CalibratedIntsCount {
			t.Fatalf("element count = %d", got)
		}
	}
}

func TestIntsCompressionFactorNear2(t *testing.T) {
	// Sec. VI-C3: varint compression factor 2.06x for the ints message
	// (deserialized object vs wire bytes). Our ABI differs slightly from
	// C++ protobuf, so assert the factor within 15%.
	e := env(t)
	rng := mt19937.New(mt19937.DefaultSeed)
	m := e.GenIntsCalibrated(rng)
	data := m.Marshal(nil)
	bump, _ := arenaDecode(t, e.IntsLay, data)
	factor := float64(bump.Used()) / float64(len(data))
	if factor < 1.75 || factor > 2.4 {
		t.Errorf("ints expansion factor = %.2f, paper says 2.06", factor)
	}
}

func TestFig8IntsWireSize(t *testing.T) {
	e := env(t)
	rng := mt19937.New(mt19937.DefaultSeed)
	for i := 0; i < 20; i++ {
		m := e.GenIntsFig8(rng)
		if got := len(m.Marshal(nil)); got != Fig8IntsWireSize {
			t.Fatalf("fig8 ints wire size = %d, want %d", got, Fig8IntsWireSize)
		}
		if got := len(m.Nums("values")); got != Fig8IntsCount {
			t.Fatalf("element count = %d", got)
		}
	}
}

func TestCharsWireSizeIs8003Bytes(t *testing.T) {
	// Sec. VI-C3: "a serialized size of 8003 bytes", compression 1.01x.
	e := env(t)
	rng := mt19937.New(mt19937.DefaultSeed)
	m := e.GenChars(rng, CharsCount)
	data := m.Marshal(nil)
	if len(data) != CharsWireSize {
		t.Fatalf("chars wire size = %d, want %d", len(data), CharsWireSize)
	}
	bump, _ := arenaDecode(t, e.CharsLay, data)
	factor := float64(bump.Used()) / float64(len(data))
	if factor < 0.99 || factor > 1.1 {
		t.Errorf("chars expansion factor = %.3f, paper says ~1.01", factor)
	}
}

func TestGenIntsFig7Distribution(t *testing.T) {
	// Fig. 7 distribution: avg varint size ~2.81 bytes/element.
	e := env(t)
	rng := mt19937.New(mt19937.DefaultSeed)
	const n = 20000
	m := e.GenInts(rng, n)
	total := 0
	for _, bits := range m.Nums("values") {
		total += wire.SizeVarint(bits)
	}
	avg := float64(total) / n
	if avg < 2.6 || avg > 3.0 {
		t.Errorf("avg varint size = %.3f, want ~2.81", avg)
	}
}

func TestRandVarintOfSizeExact(t *testing.T) {
	rng := mt19937.New(7)
	for size := 1; size <= 5; size++ {
		for i := 0; i < 2000; i++ {
			v := randVarintOfSize(rng, size)
			if got := wire.SizeVarint(uint64(v)); got != size {
				t.Fatalf("size %d: value %d encodes to %d bytes", size, v, got)
			}
		}
	}
}

func TestGenCharsReproducible(t *testing.T) {
	e := env(t)
	a := e.GenChars(mt19937.New(1), 100).GetString("data")
	b := e.GenChars(mt19937.New(1), 100).GetString("data")
	if a != b {
		t.Error("chars not reproducible with same seed")
	}
	c := e.GenChars(mt19937.New(2), 100).GetString("data")
	if a == c {
		t.Error("different seeds gave identical output")
	}
}

func TestEnvWiring(t *testing.T) {
	e := env(t)
	if e.Service == nil || len(e.Service.Methods) != 5 {
		t.Fatal("service missing")
	}
	if e.Service.Methods[MethodSmall].Input != e.Small ||
		e.Service.Methods[MethodInts].Input != e.IntArray ||
		e.Service.Methods[MethodChars].Input != e.CharArray {
		t.Error("method inputs wrong")
	}
	if e.Service.Methods[MethodEcho].Input != e.CharArray ||
		e.Service.Methods[MethodEcho].Output != e.CharArray {
		t.Error("echo method types wrong")
	}
	if e.Service.Methods[MethodEchoBlob].Input != e.Blob ||
		e.Service.Methods[MethodEchoBlob].Output != e.Blob {
		t.Error("echo-blob method types wrong")
	}
	for _, s := range Scenarios() {
		if e.Layout(s) == nil || e.Desc(s) == nil {
			t.Errorf("scenario %v missing types", s)
		}
		if s.String() == "unknown" {
			t.Errorf("scenario %v has no name", s)
		}
	}
	if ScenarioSmall.Method() != MethodSmall || ScenarioChars.Method() != MethodChars {
		t.Error("scenario methods wrong")
	}
	// Empty response object must round-trip with zero payload.
	rng := mt19937.New(1)
	for _, s := range Scenarios() {
		if e.Gen(s, rng) == nil {
			t.Errorf("Gen(%v) nil", s)
		}
	}
	if e.EmptyLay.Size == 0 {
		t.Error("empty layout size 0")
	}
}

func TestRoundTripThroughArenaDeserializer(t *testing.T) {
	e := env(t)
	rng := mt19937.New(mt19937.DefaultSeed)
	for _, s := range Scenarios() {
		m := e.Gen(s, rng)
		data := m.Marshal(nil)
		lay := e.Layout(s)
		bump, off := arenaDecode(t, lay, data)
		v := abi.MakeView(&abi.Region{Buf: bump.Bytes()}, off, lay)
		out, err := deser.Serialize(v, nil)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if string(out) != string(data) {
			t.Errorf("%v: arena round trip diverged", s)
		}
	}
}

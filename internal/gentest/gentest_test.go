// Tests of the adtgen-generated typed bindings: every field shape, both
// the builder side (client) and the zero-copy view side (host handler),
// driven through a real offloaded deployment.
package gentest

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dpurpc"
)

// mirror implements the generated MirrorServer interface: it copies every
// field of the zero-copy request view into a fresh response message, which
// round-trips all 23 field shapes through view accessors and builders.
type mirror struct {
	s *dpurpc.Schema
	t *testing.T
}

func (m *mirror) Echo(req AllView) (Echoed, uint16) {
	out := NewEchoed(m.s)
	all := NewAll(m.s)
	all.SetB(req.B())
	all.SetI32(req.I32())
	all.SetS32(req.S32())
	all.SetU32(req.U32())
	all.SetI64(req.I64())
	all.SetS64(req.S64())
	all.SetU64(req.U64())
	all.SetF32(req.F32())
	all.SetSf32(req.Sf32())
	all.SetF64(req.F64())
	all.SetSf64(req.Sf64())
	all.SetFl(req.Fl())
	all.SetDb(req.Db())
	if err := all.SetS(string(req.S())); err != nil {
		return Echoed{}, 13
	}
	if err := all.SetRaw(req.Raw()); err != nil {
		return Echoed{}, 13
	}
	all.SetMode(req.Mode())
	if inner, ok := req.Inner(); ok {
		child := NewInner(m.s)
		child.SetN(inner.N())
		if err := child.SetTag(string(inner.Tag())); err != nil {
			return Echoed{}, 13
		}
		if err := all.SetInner(child); err != nil {
			return Echoed{}, 13
		}
	}
	for i := 0; i < req.NumsLen(); i++ {
		all.AddNums(req.NumsAt(i))
	}
	for i := 0; i < req.WeightsLen(); i++ {
		all.AddWeights(req.WeightsAt(i))
	}
	for i := 0; i < req.FlagsLen(); i++ {
		all.AddFlags(req.FlagsAt(i))
	}
	for i := 0; i < req.NamesLen(); i++ {
		if err := all.AddNames(string(req.NamesAt(i))); err != nil {
			return Echoed{}, 13
		}
	}
	for i := 0; i < req.BlobsLen(); i++ {
		if err := all.AddBlobs(req.BlobsAt(i)); err != nil {
			return Echoed{}, 13
		}
	}
	for i := 0; i < req.InnersLen(); i++ {
		iv, ok := req.InnersAt(i)
		if !ok {
			return Echoed{}, 13
		}
		child := NewInner(m.s)
		child.SetN(iv.N())
		if err := child.SetTag(string(iv.Tag())); err != nil {
			return Echoed{}, 13
		}
		if err := all.AddInners(child); err != nil {
			return Echoed{}, 13
		}
	}
	if err := out.SetAll(all); err != nil {
		return Echoed{}, 13
	}
	out.SetChecksum(req.U32() + uint32(req.NumsLen()))
	return out, 0
}

func buildAll(t *testing.T, s *dpurpc.Schema) All {
	t.Helper()
	a := NewAll(s)
	a.SetB(true)
	a.SetI32(-42)
	a.SetS32(-7)
	a.SetU32(4000000000)
	a.SetI64(math.MinInt64)
	a.SetS64(-99)
	a.SetU64(math.MaxUint64)
	a.SetF32(0xdeadbeef)
	a.SetSf32(-1)
	a.SetF64(1 << 60)
	a.SetSf64(-2)
	a.SetFl(1.25)
	a.SetDb(-9.5e100)
	if err := a.SetS("hello typed"); err != nil {
		t.Fatal(err)
	}
	if err := a.SetRaw([]byte{0, 1, 0xff}); err != nil {
		t.Fatal(err)
	}
	a.SetMode(Mode_MODE_SAFE)
	inner := NewInner(s)
	inner.SetN(777)
	if err := inner.SetTag(strings.Repeat("tag", 10)); err != nil {
		t.Fatal(err)
	}
	if err := a.SetInner(inner); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		a.AddNums(uint32(i * i))
	}
	a.AddWeights(2.5)
	a.AddWeights(-0.5)
	a.AddFlags(true)
	a.AddFlags(false)
	if err := a.AddNames("first"); err != nil {
		t.Fatal(err)
	}
	if err := a.AddNames(strings.Repeat("long", 12)); err != nil {
		t.Fatal(err)
	}
	if err := a.AddBlobs([]byte{9, 8}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c := NewInner(s)
		c.SetN(uint64(100 + i))
		if err := a.AddInners(c); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func checkEchoed(t *testing.T, resp Echoed) {
	t.Helper()
	all := resp.All()
	if all.M == nil {
		t.Fatal("all missing")
	}
	if !all.B() || all.I32() != -42 || all.S32() != -7 || all.U32() != 4000000000 {
		t.Error("32-bit scalars wrong")
	}
	if all.I64() != math.MinInt64 || all.S64() != -99 || all.U64() != math.MaxUint64 {
		t.Error("64-bit scalars wrong")
	}
	if all.F32() != 0xdeadbeef || all.Sf32() != -1 || all.F64() != 1<<60 || all.Sf64() != -2 {
		t.Error("fixed scalars wrong")
	}
	if all.Fl() != 1.25 || all.Db() != -9.5e100 {
		t.Error("floats wrong")
	}
	if all.S() != "hello typed" || !bytes.Equal(all.Raw(), []byte{0, 1, 0xff}) {
		t.Error("string/bytes wrong")
	}
	if all.Mode() != Mode_MODE_SAFE {
		t.Error("enum wrong")
	}
	inner := all.Inner()
	if inner.M == nil || inner.N() != 777 || inner.Tag() != strings.Repeat("tag", 10) {
		t.Error("nested wrong")
	}
	nums := all.Nums()
	if len(nums) != 30 || nums[29] != 29*29 {
		t.Error("repeated nums wrong")
	}
	w := all.Weights()
	if len(w) != 2 || w[0] != 2.5 || w[1] != -0.5 {
		t.Error("repeated doubles wrong")
	}
	f := all.Flags()
	if len(f) != 2 || !f[0] || f[1] {
		t.Error("repeated bools wrong")
	}
	if resp.Checksum() != 4000000000+30 {
		t.Errorf("checksum = %d", resp.Checksum())
	}
}

func runMirror(t *testing.T, build func(*dpurpc.Schema, map[string]dpurpc.Impl, dpurpc.StackOptions) (*dpurpc.Stack, error)) {
	t.Helper()
	s, err := LoadSchema()
	if err != nil {
		t.Fatal(err)
	}
	stack, err := build(s, RegisterMirror(&mirror{s: s, t: t}), dpurpc.StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	addr, err := stack.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := dpurpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	client := MirrorClient{C: conn, S: s}
	resp, err := client.Echo(buildAll(t, s))
	if err != nil {
		t.Fatal(err)
	}
	checkEchoed(t, resp)
}

func TestGeneratedBindingsOffloaded(t *testing.T) {
	runMirror(t, dpurpc.NewOffloadedStack)
}

// TestResponseModesByteIdentical pins the wire contract of the response
// direction: the raw xRPC response payload for the same request must be
// byte-identical whether the host serializes responses itself or ships
// response objects for the DPU to serialize, whether the response path
// runs serially or through the duplex pipeline (host build workers + DPU
// serialization workers), and whether commit/doorbell coalescing is on —
// batching may change when blocks seal, never the bytes they carry.
func TestResponseModesByteIdentical(t *testing.T) {
	s, err := LoadSchema()
	if err != nil {
		t.Fatal(err)
	}
	reqBytes := buildAll(t, s).M.Marshal(nil)
	// The per-side protocol configs of the duplex (host workers) and
	// batched (commit coalescing on both sides) modes.
	duplex := dpurpc.Config{HostWorkers: 4}
	batched := dpurpc.Config{CommitBatch: 8}
	duplexBatched := dpurpc.Config{HostWorkers: 4, CommitBatch: 8}
	modes := []struct {
		name string
		opts dpurpc.StackOptions
	}{
		{"host-serialized serial", dpurpc.StackOptions{}},
		{"object serial", dpurpc.StackOptions{OffloadResponseSerialization: true}},
		{"object duplex", dpurpc.StackOptions{
			OffloadResponseSerialization: true, ServerCfg: duplex}},
		{"host-serialized duplex", dpurpc.StackOptions{ServerCfg: duplex}},
		{"host-serialized serial batched", dpurpc.StackOptions{
			ClientCfg: batched, ServerCfg: batched}},
		{"object serial batched", dpurpc.StackOptions{
			OffloadResponseSerialization: true, ClientCfg: batched, ServerCfg: batched}},
		{"object duplex batched", dpurpc.StackOptions{
			OffloadResponseSerialization: true, ClientCfg: batched, ServerCfg: duplexBatched}},
		{"host-serialized duplex batched", dpurpc.StackOptions{
			ClientCfg: batched, ServerCfg: duplexBatched}},
		// Scatter-gather framing with a tiny threshold, so the mirror's
		// string/bytes fields actually ride as descriptor-backed segments
		// in both datapath directions — the descriptors must be invisible
		// at the xRPC layer.
		{"sg serial", dpurpc.StackOptions{SGPayloadMin: 16}},
		{"sg object serial", dpurpc.StackOptions{
			OffloadResponseSerialization: true, SGPayloadMin: 16}},
		{"sg object duplex batched", dpurpc.StackOptions{
			OffloadResponseSerialization: true, ClientCfg: batched, ServerCfg: duplexBatched,
			SGPayloadMin: 16}},
	}
	var want []byte
	for _, mode := range modes {
		got := func() []byte {
			stack, err := dpurpc.NewOffloadedStack(s, RegisterMirror(&mirror{s: s, t: t}), mode.opts)
			if err != nil {
				t.Fatalf("%s: %v", mode.name, err)
			}
			defer stack.Close()
			addr, err := stack.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatalf("%s: %v", mode.name, err)
			}
			conn, err := dpurpc.Dial(addr)
			if err != nil {
				t.Fatalf("%s: %v", mode.name, err)
			}
			defer conn.Close()
			status, resp, err := conn.Raw().Call("/at.Mirror/Echo", reqBytes)
			if err != nil || status != 0 {
				t.Fatalf("%s: status=%d err=%v", mode.name, status, err)
			}
			return append([]byte(nil), resp...)
		}()
		if want == nil {
			want = got
			if len(want) == 0 {
				t.Fatalf("%s: empty response", mode.name)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverges from %s:\n want %x\n got  %x",
				mode.name, modes[0].name, want, got)
		}
	}
}

func TestGeneratedBindingsBaseline(t *testing.T) {
	runMirror(t, dpurpc.NewBaselineStack)
}

// TestCacheHitByteIdentical pins the response cache's wire contract: a hit
// is delivered from the stored bytes without any re-serialization, so
// repeat calls of the same request must return responses byte-identical to
// the first (host-computed) one — and identical to what an uncached stack
// returns for that request. A different request must not alias into the
// same entry.
func TestCacheHitByteIdentical(t *testing.T) {
	s, err := LoadSchema()
	if err != nil {
		t.Fatal(err)
	}
	reqBytes := buildAll(t, s).M.Marshal(nil)
	other := buildAll(t, s)
	other.SetU32(123) // different request, different response checksum
	otherBytes := other.M.Marshal(nil)

	call := func(stack *dpurpc.Stack, payload []byte) []byte {
		t.Helper()
		addr, err := stack.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := dpurpc.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		status, resp, err := conn.Raw().Call("/at.Mirror/Echo", payload)
		if err != nil || status != 0 {
			t.Fatalf("status=%d err=%v", status, err)
		}
		return append([]byte(nil), resp...)
	}

	// Uncached reference bytes.
	plain, err := dpurpc.NewOffloadedStack(s, RegisterMirror(&mirror{s: s, t: t}), dpurpc.StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := call(plain, reqBytes)
	plain.Close()

	stack, err := dpurpc.NewOffloadedStack(s, RegisterMirror(&mirror{s: s, t: t}),
		dpurpc.StackOptions{CacheMethods: []string{"/at.Mirror/Echo"}})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	addr, err := stack.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := dpurpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		status, resp, err := conn.Raw().Call("/at.Mirror/Echo", reqBytes)
		if err != nil || status != 0 {
			t.Fatalf("call %d: status=%d err=%v", i, status, err)
		}
		if !bytes.Equal(resp, want) {
			t.Fatalf("call %d diverges from the uncached response:\n want %x\n got  %x",
				i, want, resp)
		}
	}
	st := stack.Cache().Stats()
	if st.Hits < 2 {
		t.Errorf("cache hits = %d, want >= 2 (calls 2 and 3 repeat call 1)", st.Hits)
	}
	// A different request must miss and get its own (different) response.
	status, resp, err := conn.Raw().Call("/at.Mirror/Echo", otherBytes)
	if err != nil || status != 0 {
		t.Fatalf("other: status=%d err=%v", status, err)
	}
	if bytes.Equal(resp, want) {
		t.Error("different request returned the cached response of another key")
	}
}

func TestSchemaFingerprintPinned(t *testing.T) {
	s, err := LoadSchema()
	if err != nil {
		t.Fatal(err)
	}
	if s.Table.Fingerprint() != SchemaFingerprint {
		t.Error("fingerprint drifted")
	}
}

func TestEnumConstants(t *testing.T) {
	if Mode_MODE_UNSPECIFIED != 0 || Mode_MODE_FAST != 1 || Mode_MODE_SAFE != 2 {
		t.Error("enum constants wrong")
	}
}

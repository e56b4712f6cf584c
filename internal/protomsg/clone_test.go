package protomsg

import (
	"testing"
)

func TestCloneDeep(t *testing.T) {
	m := fullScalars(t)
	c := m.Clone()
	if !Equal(m, c) {
		t.Fatal("clone not equal")
	}
	// Mutating the clone must not affect the original.
	c.SetUint32("u32", 1)
	c.SetString("s", "changed")
	if m.Uint32("u32") == 1 || m.GetString("s") == "changed" {
		t.Error("clone aliases original")
	}
}

func TestCloneNestedAndRepeated(t *testing.T) {
	root := New(treeDesc)
	root.SetUint32("id", 1)
	l := New(treeDesc)
	l.SetUint32("id", 2)
	root.SetMessage("left", l)

	lists := New(listsDesc)
	lists.AppendNum("packed_u32", 9)
	lists.AppendString("names", "n")
	lists.AppendBytes("blobs", []byte{1, 2})
	k := New(treeDesc)
	k.SetUint32("id", 5)
	lists.AppendMessage("trees", k)

	rc := root.Clone()
	if !Equal(root, rc) {
		t.Fatal("tree clone unequal")
	}
	rc.Msg("left").SetUint32("id", 99)
	if root.Msg("left").Uint32("id") != 2 {
		t.Error("nested clone aliases original")
	}

	lc := lists.Clone()
	if !Equal(lists, lc) {
		t.Fatal("lists clone unequal")
	}
	lc.Msgs("trees")[0].SetUint32("id", 77)
	lc.Strs("names")[0][0] = 'X'
	if lists.Msgs("trees")[0].Uint32("id") != 5 || string(lists.Strs("names")[0]) != "n" {
		t.Error("repeated clone aliases original")
	}
}

func TestMergeSemantics(t *testing.T) {
	a := New(listsDesc)
	a.AppendNum("packed_u32", 1)
	a.AppendString("names", "a")
	b := New(listsDesc)
	b.AppendNum("packed_u32", 2)
	b.AppendString("names", "b")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if n := a.Nums("packed_u32"); len(n) != 2 || n[1] != 2 {
		t.Errorf("repeated merge = %v", n)
	}
	if s := a.Strs("names"); len(s) != 2 || string(s[1]) != "b" {
		t.Errorf("string merge = %v", s)
	}

	// Scalars overwrite; nested messages merge field-wise.
	x := New(treeDesc)
	x.SetUint32("id", 1)
	xl := New(treeDesc)
	xl.SetUint32("id", 10)
	x.SetMessage("left", xl)

	y := New(treeDesc)
	y.SetUint32("id", 2)
	yl := New(treeDesc)
	yl.SetString("label", "from-y")
	y.SetMessage("left", yl)

	if err := x.Merge(y); err != nil {
		t.Fatal(err)
	}
	if x.Uint32("id") != 2 {
		t.Error("scalar did not overwrite")
	}
	if x.Msg("left").Uint32("id") != 10 || x.Msg("left").GetString("label") != "from-y" {
		t.Error("nested merge wrong")
	}
	// Merged data must not alias the source.
	yl.SetString("label", "mutated")
	if x.Msg("left").GetString("label") != "from-y" {
		t.Error("merge aliases source")
	}
}

func TestMergeTypeMismatch(t *testing.T) {
	if err := New(treeDesc).Merge(New(listsDesc)); err == nil {
		t.Error("cross-type merge accepted")
	}
}

func TestMergeMatchesWireMerge(t *testing.T) {
	// Merge must agree with protobuf's wire-level merge: decoding the
	// concatenation of two encodings equals merging the two messages.
	a := New(treeDesc)
	a.SetUint32("id", 1)
	al := New(treeDesc)
	al.SetUint32("id", 10)
	a.SetMessage("left", al)

	b := New(treeDesc)
	b.SetString("label", "b")
	bl := New(treeDesc)
	bl.SetString("label", "deep")
	b.SetMessage("left", bl)

	concat := append(a.Marshal(nil), b.Marshal(nil)...)
	viaWire := New(treeDesc)
	if err := viaWire.Unmarshal(concat); err != nil {
		t.Fatal(err)
	}
	viaMerge := a.Clone()
	if err := viaMerge.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !Equal(viaWire, viaMerge) {
		t.Errorf("wire merge and Merge diverge:\n wire: %s\n merge: %s", viaWire, viaMerge)
	}
}

// The bytes setters keep the caller's slice (a handler echoes a request view
// without copying it), and every producer of an owned message copies:
// Clone, Merge and Unmarshal never share or write through such a slice.
func TestBytesSettersAliasAndOwnersCopy(t *testing.T) {
	raw, blob := []byte{1, 2, 3}, []byte{4, 5}
	m := New(scalarsDesc)
	if err := m.SetBytes("raw", raw); err != nil {
		t.Fatal(err)
	}
	lists := New(listsDesc)
	if err := lists.AppendBytes("blobs", blob); err != nil {
		t.Fatal(err)
	}
	if &m.Bytes("raw")[0] != &raw[0] || &lists.Strs("blobs")[0][0] != &blob[0] {
		t.Fatal("a bytes setter copied its argument")
	}

	c, lc := m.Clone(), lists.Clone()
	merged := New(scalarsDesc)
	merged.SetBytes("raw", raw)
	if err := merged.Merge(fullScalars(t)); err != nil {
		t.Fatal(err)
	}
	wire := fullScalars(t).Marshal(nil)
	decoded := New(scalarsDesc)
	decoded.SetBytes("raw", raw)
	if err := decoded.Unmarshal(wire); err != nil {
		t.Fatal(err)
	}
	if string(raw) != "\x01\x02\x03" {
		t.Fatalf("Merge or Unmarshal wrote through an aliased field: % x", raw)
	}
	raw[0], blob[0] = 0xEE, 0xEE
	if c.Bytes("raw")[0] != 1 || lc.Strs("blobs")[0][0] != 4 {
		t.Error("Clone shares an aliased field's bytes")
	}
	if merged.Bytes("raw")[0] == 0xEE || decoded.Bytes("raw")[0] == 0xEE {
		t.Error("Merge or Unmarshal kept the caller's storage")
	}
}

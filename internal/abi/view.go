package abi

import (
	"encoding/binary"
	"math"
)

// Region is a window onto the shared (mirrored) buffer. Base is the
// region-relative offset of Buf[0]: an in-object Ref r addresses
// Buf[r-Base]. Offset 0 of every region is reserved (never handed out for
// object storage) so NullRef is unambiguous; the datapath guarantees this
// because block payloads always sit behind a preamble.
type Region struct {
	Buf  []byte
	Base uint64
}

// Slice returns n bytes at region offset off, or nil if out of bounds.
func (r *Region) Slice(off, n uint64) []byte {
	if off < r.Base {
		return nil
	}
	start := off - r.Base
	if start > uint64(len(r.Buf)) || n > uint64(len(r.Buf))-start {
		return nil
	}
	return r.Buf[start : start+n : start+n]
}

// Contains reports whether [off, off+n) lies within the region.
func (r *Region) Contains(off, n uint64) bool { return r.Slice(off, n) != nil }

// View is a read-only accessor over an object in a region. Views are values
// (cheap to copy) that hold their region by value, so making one never
// allocates; this is the host-side "already built protobuf object" the
// business logic receives.
type View struct {
	Reg Region
	Off uint64 // region-relative object offset
	Lay *Layout
}

// MakeView returns a view of the object of layout lay at region offset off.
// The view copies *reg.
func MakeView(reg *Region, off uint64, lay *Layout) View {
	return View{Reg: *reg, Off: off, Lay: lay}
}

// Valid reports whether the view covers an in-bounds object whose classID
// word matches the layout.
func (v View) Valid() bool {
	b := v.Reg.Slice(v.Off, uint64(v.Lay.Size))
	return b != nil && binary.LittleEndian.Uint64(b[0:8]) == uint64(v.Lay.ClassID)
}

func (v View) obj() []byte { return v.Reg.Slice(v.Off, uint64(v.Lay.Size)) }

// Has reports the presence hasbit for field index idx.
func (v View) Has(idx int) bool {
	b := v.obj()
	if b == nil || idx < 0 || idx >= len(v.Lay.Fields) {
		return false
	}
	word := v.Lay.PresenceOff + uint32(idx/32)*4
	return binary.LittleEndian.Uint32(b[word:word+4])&(1<<(uint(idx)%32)) != 0
}

// field returns the field slot bytes, or nil.
func (v View) field(idx int) []byte {
	b := v.obj()
	if b == nil || idx < 0 || idx >= len(v.Lay.Fields) {
		return nil
	}
	f := &v.Lay.Fields[idx]
	return b[f.Offset : f.Offset+f.Size]
}

// Bool returns a bool field.
func (v View) Bool(idx int) bool {
	s := v.field(idx)
	return len(s) > 0 && s[0] != 0
}

// U32 returns the raw 32-bit slot (uint32/fixed32/int32/sint32/enum/float
// bits).
func (v View) U32(idx int) uint32 {
	s := v.field(idx)
	if len(s) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// U64 returns the raw 64-bit slot.
func (v View) U64(idx int) uint64 {
	s := v.field(idx)
	if len(s) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// I32 returns a signed 32-bit field.
func (v View) I32(idx int) int32 { return int32(v.U32(idx)) }

// I64 returns a signed 64-bit field.
func (v View) I64(idx int) int64 { return int64(v.U64(idx)) }

// F32 returns a float field.
func (v View) F32(idx int) float32 { return math.Float32frombits(v.U32(idx)) }

// F64 returns a double field.
func (v View) F64(idx int) float64 { return math.Float64frombits(v.U64(idx)) }

// Str returns the bytes of a string/bytes field. For SSO strings the result
// aliases the record itself; for spilled strings it aliases the block data —
// zero copies either way.
func (v View) Str(idx int) []byte {
	rec := v.field(idx)
	if len(rec) < StringRecordSize {
		return nil
	}
	ref := binary.LittleEndian.Uint64(rec[0:8])
	size := binary.LittleEndian.Uint64(rec[8:16])
	if size == 0 {
		return []byte{}
	}
	return v.Reg.Slice(ref, size)
}

// IsSSO reports whether the string field stores its bytes inline (the
// libstdc++ small-string optimization, Fig. 6).
func (v View) IsSSO(idx int) bool {
	rec := v.field(idx)
	if len(rec) < StringRecordSize {
		return false
	}
	f := &v.Lay.Fields[idx]
	ref := binary.LittleEndian.Uint64(rec[0:8])
	return ref == v.Off+uint64(f.Offset)+16
}

// Msg returns the view of a nested message field; ok is false when unset.
func (v View) Msg(idx int) (View, bool) {
	s := v.field(idx)
	if len(s) < RefSize {
		return View{}, false
	}
	ref := binary.LittleEndian.Uint64(s)
	if ref == NullRef {
		return View{}, false
	}
	child := v.Lay.Fields[idx].Child
	if child == nil {
		return View{}, false
	}
	return View{Reg: v.Reg, Off: ref, Lay: child}, true
}

// Len returns the element count of a repeated field.
func (v View) Len(idx int) int {
	s := v.field(idx)
	if len(s) < RepeatedHdrSize {
		return 0
	}
	return int(binary.LittleEndian.Uint64(s[8:16]))
}

// repData returns the backing array bytes of a repeated field given the
// per-element width.
func (v View) repData(idx int, elem uint64) []byte {
	s := v.field(idx)
	if len(s) < RepeatedHdrSize {
		return nil
	}
	ref := binary.LittleEndian.Uint64(s[0:8])
	count := binary.LittleEndian.Uint64(s[8:16])
	if count == 0 {
		return []byte{}
	}
	return v.Reg.Slice(ref, count*elem)
}

// NumAt returns element i of a repeated scalar field as raw bits.
func (v View) NumAt(idx, i int) uint64 {
	f := &v.Lay.Fields[idx]
	data := v.repData(idx, uint64(f.ElemSize))
	if data == nil || i < 0 || (i+1)*int(f.ElemSize) > len(data) {
		return 0
	}
	switch f.ElemSize {
	case 1:
		return uint64(data[i])
	case 4:
		return uint64(binary.LittleEndian.Uint32(data[i*4:]))
	default:
		return binary.LittleEndian.Uint64(data[i*8:])
	}
}

// Nums32 returns the raw element array of a repeated 32-bit scalar field as
// a contiguous little-endian byte slice (for bulk processing), or nil.
func (v View) NumsRaw(idx int) []byte {
	f := &v.Lay.Fields[idx]
	return v.repData(idx, uint64(f.ElemSize))
}

// StrAt returns element i of a repeated string/bytes field.
func (v View) StrAt(idx, i int) []byte {
	data := v.repData(idx, StringRecordSize)
	if data == nil || i < 0 || (i+1)*StringRecordSize > len(data) {
		return nil
	}
	rec := data[i*StringRecordSize : (i+1)*StringRecordSize]
	ref := binary.LittleEndian.Uint64(rec[0:8])
	size := binary.LittleEndian.Uint64(rec[8:16])
	if size == 0 {
		return []byte{}
	}
	return v.Reg.Slice(ref, size)
}

// MsgAt returns element i of a repeated message field.
func (v View) MsgAt(idx, i int) (View, bool) {
	data := v.repData(idx, RefSize)
	if data == nil || i < 0 || (i+1)*RefSize > len(data) {
		return View{}, false
	}
	ref := binary.LittleEndian.Uint64(data[i*8:])
	child := v.Lay.Fields[idx].Child
	if ref == NullRef || child == nil {
		return View{}, false
	}
	return View{Reg: v.Reg, Off: ref, Lay: child}, true
}

// --- name-based conveniences (for examples and business-logic code) -------

func (v View) idx(name string) int {
	f := v.Lay.Msg.FieldByName(name)
	if f == nil {
		return -1
	}
	return f.Index
}

// HasName reports presence by field name.
func (v View) HasName(name string) bool { return v.Has(v.idx(name)) }

// BoolName returns a bool field by name.
func (v View) BoolName(name string) bool { return v.Bool(v.idx(name)) }

// U32Name returns a 32-bit field by name.
func (v View) U32Name(name string) uint32 { return v.U32(v.idx(name)) }

// U64Name returns a 64-bit field by name.
func (v View) U64Name(name string) uint64 { return v.U64(v.idx(name)) }

// I32Name returns a signed 32-bit field by name.
func (v View) I32Name(name string) int32 { return v.I32(v.idx(name)) }

// I64Name returns a signed 64-bit field by name.
func (v View) I64Name(name string) int64 { return v.I64(v.idx(name)) }

// F32Name returns a float field by name.
func (v View) F32Name(name string) float32 { return v.F32(v.idx(name)) }

// F64Name returns a double field by name.
func (v View) F64Name(name string) float64 { return v.F64(v.idx(name)) }

// StrName returns a string/bytes field by name.
func (v View) StrName(name string) []byte { return v.Str(v.idx(name)) }

// MsgName returns a nested message field by name.
func (v View) MsgName(name string) (View, bool) { return v.Msg(v.idx(name)) }

// LenName returns a repeated field's length by name.
func (v View) LenName(name string) int { return v.Len(v.idx(name)) }

// NumAtName returns element i of a repeated scalar field by name.
func (v View) NumAtName(name string, i int) uint64 { return v.NumAt(v.idx(name), i) }

// StrAtName returns element i of a repeated string field by name.
func (v View) StrAtName(name string, i int) []byte { return v.StrAt(v.idx(name), i) }

// MsgAtName returns element i of a repeated message field by name.
func (v View) MsgAtName(name string, i int) (View, bool) { return v.MsgAt(v.idx(name), i) }

package abi

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dpurpc/internal/arena"
	"dpurpc/internal/protodesc"
)

// Errors returned by the builder.
var (
	ErrNoSuchField = errors.New("abi: no such field")
	ErrWrongKind   = errors.New("abi: field kind mismatch")
)

// Builder constructs ABI objects inside an arena block. It is used by the
// host to build response objects and by tests; the hot-path deserializer
// (internal/deser) writes the same representation with its own specialized
// code.
type Builder struct {
	bump *arena.Bump
	base uint64 // region offset of bump byte 0
}

// NewBuilder returns a builder allocating from bump, whose first byte sits
// at region offset base. If base is 0, an 8-byte guard is reserved so no
// object can ever be placed at region offset 0 (NullRef).
func NewBuilder(bump *arena.Bump, base uint64) *Builder {
	b := &Builder{}
	b.Reset(bump, base)
	return b
}

// Reset rebinds the builder to bump at region offset base, as NewBuilder
// does, so an owner can keep one Builder by value and reuse it.
func (b *Builder) Reset(bump *arena.Bump, base uint64) {
	b.bump, b.base = bump, base
	if base == 0 && bump.Used() == 0 {
		bump.Alloc(8, 8) // guard; ignore error: a <8-byte region is useless anyway
	}
}

// Region returns a region view over the builder's backing buffer, for
// reading back built objects.
func (b *Builder) Region() *Region {
	return &Region{Buf: b.bump.Bytes(), Base: b.base}
}

// Used returns the bytes consumed in the backing buffer.
func (b *Builder) Used() int { return b.bump.Used() }

// alloc allocates n bytes and returns (slice, region offset).
func (b *Builder) alloc(n, align int) ([]byte, uint64, error) {
	s, off, err := b.bump.Alloc(n, align)
	if err != nil {
		return nil, 0, err
	}
	return s, b.base + uint64(off), nil
}

// Obj is a mutable object under construction.
type Obj struct {
	b   *Builder
	buf []byte // the object bytes
	off uint64 // region offset
	lay *Layout
}

// NewObject allocates and default-initializes an object of layout lay.
func (b *Builder) NewObject(lay *Layout) (Obj, error) {
	s, off, err := b.alloc(int(lay.Size), ObjectAlign)
	if err != nil {
		return Obj{}, err
	}
	copy(s, lay.Default)
	return Obj{b: b, buf: s, off: off, lay: lay}, nil
}

// Off returns the object's region offset (its "pointer" in the shared
// address space).
func (o Obj) Off() uint64 { return o.off }

// Layout returns the object's layout.
func (o Obj) Layout() *Layout { return o.lay }

// View returns a read view of the object.
func (o Obj) View() View { return MakeView(o.b.Region(), o.off, o.lay) }

// IsZero reports whether o is the zero Obj (not allocated).
func (o Obj) IsZero() bool { return o.buf == nil }

func (o Obj) fieldByName(name string) (*FieldLayout, error) {
	f := o.lay.Msg.FieldByName(name)
	if f == nil {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchField, o.lay.Msg.Name, name)
	}
	return &o.lay.Fields[f.Index], nil
}

// markPresent sets the hasbit for field index idx.
func (o Obj) markPresent(idx int) {
	word := o.lay.PresenceOff + uint32(idx/32)*4
	w := binary.LittleEndian.Uint32(o.buf[word : word+4])
	w |= 1 << (uint(idx) % 32)
	binary.LittleEndian.PutUint32(o.buf[word:word+4], w)
}

// SetBits writes a scalar field from raw bits (IEEE bits for floats; two's
// complement for signed integers).
func (o Obj) SetBits(name string, bits uint64) error {
	fl, err := o.fieldByName(name)
	if err != nil {
		return err
	}
	if fl.Repeated || !fl.Kind.IsPackable() {
		return fmt.Errorf("%w: %s is not a singular scalar", ErrWrongKind, name)
	}
	s := o.buf[fl.Offset : fl.Offset+fl.Size]
	switch fl.Size {
	case 1:
		if bits != 0 {
			s[0] = 1
		} else {
			s[0] = 0
		}
	case 4:
		binary.LittleEndian.PutUint32(s, uint32(bits))
	default:
		binary.LittleEndian.PutUint64(s, bits)
	}
	o.markPresent(fl.Desc.Index)
	return nil
}

// SetStr writes a string/bytes field, using inline SSO storage when the
// value fits (<= SSOCapacity bytes) and spilling to the arena otherwise.
func (o Obj) SetStr(name string, data []byte) error {
	fl, err := o.fieldByName(name)
	if err != nil {
		return err
	}
	if fl.Repeated || (fl.Kind != protodesc.KindString && fl.Kind != protodesc.KindBytes) {
		return fmt.Errorf("%w: %s is not a singular string/bytes field", ErrWrongKind, name)
	}
	rec := o.buf[fl.Offset : fl.Offset+StringRecordSize]
	recOff := o.off + uint64(fl.Offset)
	if len(data) <= SSOCapacity {
		PutStringInline(rec, recOff, data)
	} else {
		dst, ref, err := o.b.alloc(len(data), 1)
		if err != nil {
			return err
		}
		copy(dst, data)
		PutStringRef(rec, ref, len(data))
	}
	o.markPresent(fl.Desc.Index)
	return nil
}

// SetStrRef writes a string/bytes field as a reference to bytes that live
// elsewhere in the region (e.g. a scatter-gather payload segment placed by
// the caller), without copying anything into the arena. The caller owns
// placing size bytes at region offset ref.
func (o Obj) SetStrRef(name string, ref uint64, size int) error {
	fl, err := o.fieldByName(name)
	if err != nil {
		return err
	}
	if fl.Repeated || (fl.Kind != protodesc.KindString && fl.Kind != protodesc.KindBytes) {
		return fmt.Errorf("%w: %s is not a singular string/bytes field", ErrWrongKind, name)
	}
	rec := o.buf[fl.Offset : fl.Offset+StringRecordSize]
	PutStringRef(rec, ref, size)
	o.markPresent(fl.Desc.Index)
	return nil
}

// SetMsg links a previously built child object into a message field. The
// child must be of the field's type and from the same builder.
func (o Obj) SetMsg(name string, child Obj) error {
	fl, err := o.fieldByName(name)
	if err != nil {
		return err
	}
	if fl.Repeated || fl.Kind != protodesc.KindMessage {
		return fmt.Errorf("%w: %s is not a singular message field", ErrWrongKind, name)
	}
	if child.lay != fl.Child {
		return fmt.Errorf("%w: %s wants %s, got %s", ErrWrongKind, name,
			fl.Child.Msg.Name, child.lay.Msg.Name)
	}
	binary.LittleEndian.PutUint64(o.buf[fl.Offset:fl.Offset+8], child.off)
	o.markPresent(fl.Desc.Index)
	return nil
}

// SetNums writes a repeated scalar field from raw element bits.
func (o Obj) SetNums(name string, bits []uint64) error {
	fl, err := o.fieldByName(name)
	if err != nil {
		return err
	}
	if !fl.Repeated || fl.ElemSize == 0 {
		return fmt.Errorf("%w: %s is not a repeated scalar field", ErrWrongKind, name)
	}
	var ref uint64
	if len(bits) > 0 {
		elem := int(fl.ElemSize)
		data, r, err := o.b.alloc(len(bits)*elem, elem)
		if err != nil {
			return err
		}
		ref = r
		for i, v := range bits {
			switch elem {
			case 1:
				if v != 0 {
					data[i] = 1
				}
			case 4:
				binary.LittleEndian.PutUint32(data[i*4:], uint32(v))
			default:
				binary.LittleEndian.PutUint64(data[i*8:], v)
			}
		}
	}
	hdr := o.buf[fl.Offset : fl.Offset+RepeatedHdrSize]
	binary.LittleEndian.PutUint64(hdr[0:8], ref)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(bits)))
	o.markPresent(fl.Desc.Index)
	return nil
}

// SetStrs writes a repeated string/bytes field.
func (o Obj) SetStrs(name string, items [][]byte) error {
	fl, err := o.fieldByName(name)
	if err != nil {
		return err
	}
	if !fl.Repeated || (fl.Kind != protodesc.KindString && fl.Kind != protodesc.KindBytes) {
		return fmt.Errorf("%w: %s is not a repeated string/bytes field", ErrWrongKind, name)
	}
	var ref uint64
	if len(items) > 0 {
		recs, r, err := o.b.alloc(len(items)*StringRecordSize, 8)
		if err != nil {
			return err
		}
		ref = r
		for i, it := range items {
			rec := recs[i*StringRecordSize : (i+1)*StringRecordSize]
			recOff := r + uint64(i*StringRecordSize)
			if len(it) <= SSOCapacity {
				PutStringInline(rec, recOff, it)
			} else {
				dst, dref, err := o.b.alloc(len(it), 1)
				if err != nil {
					return err
				}
				copy(dst, it)
				PutStringRef(rec, dref, len(it))
			}
		}
	}
	hdr := o.buf[fl.Offset : fl.Offset+RepeatedHdrSize]
	binary.LittleEndian.PutUint64(hdr[0:8], ref)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(items)))
	o.markPresent(fl.Desc.Index)
	return nil
}

// SetMsgs writes a repeated message field from previously built children.
func (o Obj) SetMsgs(name string, children []Obj) error {
	fl, err := o.fieldByName(name)
	if err != nil {
		return err
	}
	if !fl.Repeated || fl.Kind != protodesc.KindMessage {
		return fmt.Errorf("%w: %s is not a repeated message field", ErrWrongKind, name)
	}
	var ref uint64
	if len(children) > 0 {
		refs, r, err := o.b.alloc(len(children)*RefSize, 8)
		if err != nil {
			return err
		}
		ref = r
		for i, c := range children {
			if c.lay != fl.Child {
				return fmt.Errorf("%w: %s element %d wrong type", ErrWrongKind, name, i)
			}
			binary.LittleEndian.PutUint64(refs[i*8:], c.off)
		}
	}
	hdr := o.buf[fl.Offset : fl.Offset+RepeatedHdrSize]
	binary.LittleEndian.PutUint64(hdr[0:8], ref)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(children)))
	o.markPresent(fl.Desc.Index)
	return nil
}

// --- low-level record writers shared with the deserializer ----------------

// PutStringInline fills a 32-byte string record with inline SSO data. The
// data pointer self-references the SSO buffer at recOff+16, exactly like
// libstdc++. len(data) must be <= SSOCapacity.
func PutStringInline(rec []byte, recOff uint64, data []byte) {
	binary.LittleEndian.PutUint64(rec[0:8], recOff+16)
	binary.LittleEndian.PutUint64(rec[8:16], uint64(len(data)))
	n := copy(rec[16:16+SSOCapacity], data)
	for i := 16 + n; i < 32; i++ {
		rec[i] = 0
	}
}

// PutStringRef fills a 32-byte string record pointing at external data; the
// capacity word mirrors the size as the paper's deserializer does.
func PutStringRef(rec []byte, dataRef uint64, size int) {
	binary.LittleEndian.PutUint64(rec[0:8], dataRef)
	binary.LittleEndian.PutUint64(rec[8:16], uint64(size))
	binary.LittleEndian.PutUint64(rec[16:24], uint64(size)) // capacity
	binary.LittleEndian.PutUint64(rec[24:32], 0)
}

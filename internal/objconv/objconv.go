// Package objconv converts between dynamic protobuf messages
// (internal/protomsg) and shared-region ABI objects (internal/abi) without
// going through the wire format.
//
// ToArena is the building block of the response-serialization offload the
// paper sketches in Sec. III-A ("serialization can be offloaded with
// similar techniques"): the host writes the response *object* into the
// shared region, and the DPU — not the host — turns it into protobuf bytes
// for the xRPC client. FromArena is the inverse, used by tests and by
// host code that wants to lift a zero-copy view into a mutable message.
package objconv

import (
	"bytes"
	"fmt"
	"math"

	"dpurpc/internal/abi"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/protomsg"
)

// MeasureMessage returns an upper bound on the arena bytes ToArena will
// consume for m laid out as lay (object sizes, spilled strings, arrays,
// and worst-case alignment padding).
func MeasureMessage(lay *abi.Layout, m *protomsg.Message) (int, error) {
	if m.Descriptor() != lay.Msg {
		return 0, fmt.Errorf("objconv: message is %s, layout is %s",
			m.Descriptor().Name, lay.Msg.Name)
	}
	return measure(lay, m), nil
}

func measure(lay *abi.Layout, m *protomsg.Message) int {
	total := int(lay.Size) + abi.ObjectAlign
	for i := range lay.Fields {
		fl := &lay.Fields[i]
		f := fl.Desc
		switch {
		case f.Repeated && fl.ElemSize != 0:
			if n := len(m.Nums(f.Name)); n > 0 {
				total += n*int(fl.ElemSize) + 8
			}
		case f.Repeated && (f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes):
			items := m.Strs(f.Name)
			if len(items) > 0 {
				total += len(items)*abi.StringRecordSize + 8
				for _, it := range items {
					if len(it) > abi.SSOCapacity {
						total += len(it)
					}
				}
			}
		case f.Repeated:
			kids := m.Msgs(f.Name)
			if len(kids) > 0 {
				total += len(kids)*abi.RefSize + 8
				for _, k := range kids {
					total += measure(fl.Child, k)
				}
			}
		case f.Kind == protodesc.KindMessage:
			if child := m.Msg(f.Name); child != nil {
				total += measure(fl.Child, child)
			}
		case f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes:
			if s := m.Bytes(f.Name); len(s) > abi.SSOCapacity {
				total += len(s)
			}
		}
	}
	return total
}

// ToArena builds an ABI object from m using builder b and returns it.
func ToArena(b *abi.Builder, lay *abi.Layout, m *protomsg.Message) (abi.Obj, error) {
	return ToArenaPlaced(b, lay, m, nil)
}

// StrPlacer lets a caller divert singular string/bytes fields out of the
// arena: when it returns ok, the field's record becomes a reference to size
// bytes the caller has already placed at region offset ref (scatter-gather
// payload segments), and nothing is copied into the arena. Fields it
// declines (and every field when the placer is nil) spill normally.
type StrPlacer func(f *protodesc.Field, data []byte) (ref uint64, ok bool)

// ToArenaPlaced is ToArena with a StrPlacer applied to the root message's
// singular string/bytes fields (nested messages always spill inline — SG
// descriptors only describe top-level payload fields).
func ToArenaPlaced(b *abi.Builder, lay *abi.Layout, m *protomsg.Message, placer StrPlacer) (abi.Obj, error) {
	if m.Descriptor() != lay.Msg {
		return abi.Obj{}, fmt.Errorf("objconv: message is %s, layout is %s",
			m.Descriptor().Name, lay.Msg.Name)
	}
	obj, err := b.NewObject(lay)
	if err != nil {
		return abi.Obj{}, err
	}
	if err := fill(b, obj, lay, m, placer); err != nil {
		return abi.Obj{}, err
	}
	return obj, nil
}

func fill(b *abi.Builder, obj abi.Obj, lay *abi.Layout, m *protomsg.Message, placer StrPlacer) error {
	for i := range lay.Fields {
		fl := &lay.Fields[i]
		f := fl.Desc
		if !m.Has(f.Name) {
			continue
		}
		switch {
		case f.Repeated && fl.ElemSize != 0:
			if err := obj.SetNums(f.Name, m.Nums(f.Name)); err != nil {
				return err
			}
		case f.Repeated && (f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes):
			if err := obj.SetStrs(f.Name, m.Strs(f.Name)); err != nil {
				return err
			}
		case f.Repeated:
			srcKids := m.Msgs(f.Name)
			kids := make([]abi.Obj, len(srcKids))
			for j, k := range srcKids {
				child, err := ToArena(b, fl.Child, k)
				if err != nil {
					return err
				}
				kids[j] = child
			}
			if err := obj.SetMsgs(f.Name, kids); err != nil {
				return err
			}
		case f.Kind == protodesc.KindMessage:
			child, err := ToArena(b, fl.Child, m.Msg(f.Name))
			if err != nil {
				return err
			}
			if err := obj.SetMsg(f.Name, child); err != nil {
				return err
			}
		case f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes:
			data := m.Bytes(f.Name)
			if placer != nil {
				if ref, ok := placer(f, data); ok {
					if err := obj.SetStrRef(f.Name, ref, len(data)); err != nil {
						return err
					}
					continue
				}
			}
			if err := obj.SetStr(f.Name, data); err != nil {
				return err
			}
		default:
			if err := obj.SetBits(f.Name, scalarBits(m, f)); err != nil {
				return err
			}
		}
	}
	return nil
}

// scalarBits extracts the raw slot bits of a singular scalar field.
func scalarBits(m *protomsg.Message, f *protodesc.Field) uint64 {
	switch f.Kind {
	case protodesc.KindBool:
		if m.Bool(f.Name) {
			return 1
		}
		return 0
	case protodesc.KindFloat:
		return uint64(math.Float32bits(m.Float(f.Name)))
	case protodesc.KindDouble:
		return math.Float64bits(m.Double(f.Name))
	case protodesc.KindInt32, protodesc.KindSint32, protodesc.KindSfixed32,
		protodesc.KindEnum:
		return uint64(uint32(m.Int32(f.Name)))
	case protodesc.KindUint32, protodesc.KindFixed32:
		return uint64(m.Uint32(f.Name))
	default:
		return m.Uint64(f.Name)
	}
}

// FromArena lifts a zero-copy view into a fresh dynamic message (deep
// copy: the message owns every byte and outlives the region). Presence
// follows the view's hasbits.
func FromArena(v abi.View) (*protomsg.Message, error) {
	if !v.Valid() {
		return nil, fmt.Errorf("objconv: invalid view")
	}
	m := protomsg.New(v.Lay.Msg)
	for i := range v.Lay.Fields {
		fl := &v.Lay.Fields[i]
		f := fl.Desc
		if !v.Has(i) {
			continue
		}
		var err error
		switch {
		case f.Repeated && fl.ElemSize != 0:
			for j, n := 0, v.Len(i); j < n; j++ {
				if err = m.AppendNum(f.Name, v.NumAt(i, j)); err != nil {
					return nil, err
				}
			}
		case f.Repeated && f.Kind == protodesc.KindString:
			for j, n := 0, v.Len(i); j < n; j++ {
				if err = m.AppendString(f.Name, string(v.StrAt(i, j))); err != nil {
					return nil, err
				}
			}
		case f.Repeated && f.Kind == protodesc.KindBytes:
			for j, n := 0, v.Len(i); j < n; j++ {
				// The setters keep their argument; the view's bytes are
				// not the message's to keep.
				if err = m.AppendBytes(f.Name, bytes.Clone(v.StrAt(i, j))); err != nil {
					return nil, err
				}
			}
		case f.Repeated:
			for j, n := 0, v.Len(i); j < n; j++ {
				child, ok := v.MsgAt(i, j)
				if !ok {
					return nil, fmt.Errorf("objconv: broken element ref in %s", f.Name)
				}
				cm, err := FromArena(child)
				if err != nil {
					return nil, err
				}
				if err := m.AppendMessage(f.Name, cm); err != nil {
					return nil, err
				}
			}
		case f.Kind == protodesc.KindMessage:
			child, ok := v.Msg(i)
			if !ok {
				continue
			}
			cm, err := FromArena(child)
			if err != nil {
				return nil, err
			}
			if err := m.SetMessage(f.Name, cm); err != nil {
				return nil, err
			}
		case f.Kind == protodesc.KindString:
			err = m.SetString(f.Name, string(v.Str(i)))
		case f.Kind == protodesc.KindBytes:
			err = m.SetBytes(f.Name, bytes.Clone(v.Str(i)))
		case f.Kind == protodesc.KindBool:
			err = m.SetBool(f.Name, v.Bool(i))
		case f.Kind == protodesc.KindFloat:
			err = m.SetFloat(f.Name, v.F32(i))
		case f.Kind == protodesc.KindDouble:
			err = m.SetDouble(f.Name, v.F64(i))
		case f.Kind == protodesc.KindEnum:
			err = m.SetEnum(f.Name, v.I32(i))
		case f.Kind == protodesc.KindInt32, f.Kind == protodesc.KindSint32,
			f.Kind == protodesc.KindSfixed32:
			err = m.SetInt32(f.Name, v.I32(i))
		case f.Kind == protodesc.KindUint32, f.Kind == protodesc.KindFixed32:
			err = m.SetUint32(f.Name, v.U32(i))
		case f.Kind == protodesc.KindInt64, f.Kind == protodesc.KindSint64,
			f.Kind == protodesc.KindSfixed64:
			err = m.SetInt64(f.Name, v.I64(i))
		default:
			err = m.SetUint64(f.Name, v.U64(i))
		}
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

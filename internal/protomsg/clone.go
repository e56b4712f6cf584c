package protomsg

import (
	"fmt"

	"dpurpc/internal/protodesc"
)

// Clone returns a deep copy of m.
func (m *Message) Clone() *Message {
	out := New(m.desc)
	for i, f := range m.desc.Fields {
		if !m.values[i].set {
			continue
		}
		src, dst := &m.values[i], &out.values[i]
		out.values[i].set = true
		switch {
		case f.Repeated && f.Kind == protodesc.KindMessage:
			dst.msgs = make([]*Message, len(src.msgs))
			for j, child := range src.msgs {
				dst.msgs[j] = child.Clone()
			}
		case f.Repeated && (f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes):
			dst.strs = make([][]byte, len(src.strs))
			for j, s := range src.strs {
				dst.strs[j] = append([]byte(nil), s...)
			}
		case f.Repeated:
			dst.nums = append([]uint64(nil), src.nums...)
		case f.Kind == protodesc.KindMessage:
			if src.msg != nil {
				dst.msg = src.msg.Clone()
			}
		case f.Kind == protodesc.KindString, f.Kind == protodesc.KindBytes:
			dst.str = append([]byte(nil), src.str...)
		default:
			dst.num = src.num
		}
	}
	return out
}

// Merge folds src into m with protobuf merge semantics: set scalar and
// string fields overwrite, repeated fields concatenate, and nested messages
// merge recursively. src is not modified; copied data never aliases it.
func (m *Message) Merge(src *Message) error {
	if src.desc != m.desc {
		return fmt.Errorf("protomsg: merge of %s into %s", src.desc.Name, m.desc.Name)
	}
	for i, f := range m.desc.Fields {
		if !src.values[i].set {
			continue
		}
		sv, dv := &src.values[i], &m.values[i]
		switch {
		case f.Repeated && f.Kind == protodesc.KindMessage:
			for _, child := range sv.msgs {
				dv.msgs = append(dv.msgs, child.Clone())
			}
		case f.Repeated && (f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes):
			for _, s := range sv.strs {
				dv.strs = append(dv.strs, append([]byte(nil), s...))
			}
		case f.Repeated:
			dv.nums = append(dv.nums, sv.nums...)
		case f.Kind == protodesc.KindMessage:
			if sv.msg == nil {
				continue
			}
			if dv.msg == nil {
				dv.msg = New(f.Message)
			}
			if err := dv.msg.Merge(sv.msg); err != nil {
				return err
			}
		case f.Kind == protodesc.KindString, f.Kind == protodesc.KindBytes:
			dv.str = append([]byte(nil), sv.str...) // dv.str may alias a caller's buffer (SetBytes)
		default:
			dv.num = sv.num
		}
		m.values[i].set = true
	}
	return nil
}

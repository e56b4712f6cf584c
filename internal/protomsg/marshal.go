package protomsg

import (
	"fmt"

	"dpurpc/internal/protodesc"
	"dpurpc/internal/utf8x"
	"dpurpc/internal/wire"
)

// wireBits converts a field's stored bit pattern into the value carried in
// its varint wire encoding. Negative int32/enum values are sign-extended to
// 64 bits, matching the protobuf encoding.
func wireBits(k protodesc.Kind, bits uint64) uint64 {
	switch k {
	case protodesc.KindInt32, protodesc.KindEnum:
		return uint64(int64(int32(uint32(bits))))
	case protodesc.KindSint32:
		return wire.EncodeZigZag(int64(int32(uint32(bits))))
	case protodesc.KindSint64:
		return wire.EncodeZigZag(int64(bits))
	default:
		return bits
	}
}

// storedBits is the inverse of wireBits: it converts a decoded wire value
// into the bit pattern stored in the message slot.
func storedBits(k protodesc.Kind, v uint64) uint64 {
	switch k {
	case protodesc.KindBool:
		if v != 0 {
			return 1
		}
		return 0
	case protodesc.KindInt32, protodesc.KindEnum, protodesc.KindUint32:
		return uint64(uint32(v))
	case protodesc.KindSint32:
		return uint64(uint32(int32(wire.DecodeZigZag(v))))
	case protodesc.KindSint64:
		return uint64(wire.DecodeZigZag(v))
	default:
		return v
	}
}

// scalarWireSize returns the wire size of one element value (without tag).
func scalarWireSize(k protodesc.Kind, bits uint64) int {
	switch k.WireType() {
	case wire.TypeFixed32:
		return 4
	case wire.TypeFixed64:
		return 8
	default:
		return wire.SizeVarint(wireBits(k, bits))
	}
}

func appendScalar(b []byte, k protodesc.Kind, bits uint64) []byte {
	switch k.WireType() {
	case wire.TypeFixed32:
		return wire.AppendFixed32(b, uint32(bits))
	case wire.TypeFixed64:
		return wire.AppendFixed64(b, bits)
	default:
		return wire.AppendVarint(b, wireBits(k, bits))
	}
}

// Size returns the number of bytes Marshal would produce.
func (m *Message) Size() int {
	n := 0
	for i, f := range m.desc.Fields {
		v := &m.values[i]
		if f.Repeated {
			switch {
			case f.Kind == protodesc.KindMessage:
				for _, child := range v.msgs {
					cs := child.Size()
					n += wire.SizeTag(f.Number) + wire.SizeBytes(cs)
				}
			case f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes:
				for _, s := range v.strs {
					n += wire.SizeTag(f.Number) + wire.SizeBytes(len(s))
				}
			case f.Packed:
				if len(v.nums) == 0 {
					continue
				}
				body := 0
				for _, bits := range v.nums {
					body += scalarWireSize(f.Kind, bits)
				}
				n += wire.SizeTag(f.Number) + wire.SizeBytes(body)
			default:
				for _, bits := range v.nums {
					n += wire.SizeTag(f.Number) + scalarWireSize(f.Kind, bits)
				}
			}
			continue
		}
		switch f.Kind {
		case protodesc.KindMessage:
			if v.msg != nil {
				n += wire.SizeTag(f.Number) + wire.SizeBytes(v.msg.Size())
			}
		case protodesc.KindString, protodesc.KindBytes:
			if len(v.str) > 0 {
				n += wire.SizeTag(f.Number) + wire.SizeBytes(len(v.str))
			}
		default:
			if v.num != 0 {
				n += wire.SizeTag(f.Number) + scalarWireSize(f.Kind, v.num)
			}
		}
	}
	return n
}

// Marshal appends the proto3 encoding of m to b and returns the extended
// slice. Fields are emitted in field-number order (deterministic output).
// proto3 semantics: zero-valued scalars, empty strings/bytes, and unset
// messages are omitted.
func (m *Message) Marshal(b []byte) []byte {
	for i, f := range m.desc.Fields {
		v := &m.values[i]
		if f.Repeated {
			switch {
			case f.Kind == protodesc.KindMessage:
				for _, child := range v.msgs {
					b = wire.AppendTag(b, f.Number, wire.TypeBytes)
					b = wire.AppendVarint(b, uint64(child.Size()))
					b = child.Marshal(b)
				}
			case f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes:
				for _, s := range v.strs {
					b = wire.AppendTag(b, f.Number, wire.TypeBytes)
					b = wire.AppendBytes(b, s)
				}
			case f.Packed:
				if len(v.nums) == 0 {
					continue
				}
				body := 0
				for _, bits := range v.nums {
					body += scalarWireSize(f.Kind, bits)
				}
				b = wire.AppendTag(b, f.Number, wire.TypeBytes)
				b = wire.AppendVarint(b, uint64(body))
				for _, bits := range v.nums {
					b = appendScalar(b, f.Kind, bits)
				}
			default:
				for _, bits := range v.nums {
					b = wire.AppendTag(b, f.Number, f.Kind.WireType())
					b = appendScalar(b, f.Kind, bits)
				}
			}
			continue
		}
		switch f.Kind {
		case protodesc.KindMessage:
			if v.msg != nil {
				b = wire.AppendTag(b, f.Number, wire.TypeBytes)
				b = wire.AppendVarint(b, uint64(v.msg.Size()))
				b = v.msg.Marshal(b)
			}
		case protodesc.KindString, protodesc.KindBytes:
			if len(v.str) > 0 {
				b = wire.AppendTag(b, f.Number, wire.TypeBytes)
				b = wire.AppendBytes(b, v.str)
			}
		default:
			if v.num != 0 {
				b = wire.AppendTag(b, f.Number, f.Kind.WireType())
				b = appendScalar(b, f.Kind, v.num)
			}
		}
	}
	return b
}

// Unmarshal decodes wire bytes into m, merging into existing contents
// (call Clear first for replace semantics). This is the standard one-copy
// deserializer: strings, bytes and nested messages are allocated on the Go
// heap, which is exactly the host-side cost the paper offloads to the DPU.
func (m *Message) Unmarshal(data []byte) error {
	d := wire.NewDecoder(data)
	for !d.Done() {
		num, wt, err := d.Tag()
		if err != nil {
			return err
		}
		f := m.desc.FieldByNumber(num)
		if f == nil {
			// Unknown field: skipped (proto3 drop semantics).
			if err := d.Skip(wt); err != nil {
				return err
			}
			continue
		}
		if err := m.decodeField(&d, f, wt); err != nil {
			return err
		}
	}
	return nil
}

func (m *Message) decodeField(d *wire.Decoder, f *protodesc.Field, wt wire.Type) error {
	v := &m.values[f.Index]
	switch {
	case f.Repeated && f.Kind.IsPackable():
		// Accept both packed and unpacked encodings regardless of the
		// declared option, per the protobuf spec.
		if wt == wire.TypeBytes {
			body, err := d.Bytes()
			if err != nil {
				return err
			}
			bd := wire.NewDecoder(body)
			for !bd.Done() {
				bits, err := readScalar(&bd, f.Kind)
				if err != nil {
					return err
				}
				v.nums = append(v.nums, bits)
			}
		} else {
			if wt != f.Kind.WireType() {
				return wireTypeErr(m, f, wt)
			}
			bits, err := readScalar(d, f.Kind)
			if err != nil {
				return err
			}
			v.nums = append(v.nums, bits)
		}
		m.values[f.Index].set = true
	case f.Repeated && (f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes):
		if wt != wire.TypeBytes {
			return wireTypeErr(m, f, wt)
		}
		s, err := d.Bytes()
		if err != nil {
			return err
		}
		if f.Kind == protodesc.KindString && !utf8x.Valid(s) {
			return wire.ErrInvalidUTF8
		}
		v.strs = append(v.strs, append([]byte(nil), s...)) // the copy
		m.values[f.Index].set = true
	case f.Repeated: // repeated message
		if wt != wire.TypeBytes {
			return wireTypeErr(m, f, wt)
		}
		body, err := d.Bytes()
		if err != nil {
			return err
		}
		child := New(f.Message)
		if err := child.Unmarshal(body); err != nil {
			return err
		}
		v.msgs = append(v.msgs, child)
		m.values[f.Index].set = true
	case f.Kind == protodesc.KindMessage:
		if wt != wire.TypeBytes {
			return wireTypeErr(m, f, wt)
		}
		body, err := d.Bytes()
		if err != nil {
			return err
		}
		if v.msg == nil {
			v.msg = New(f.Message)
		}
		// Repeated occurrences of a singular message field merge.
		if err := v.msg.Unmarshal(body); err != nil {
			return err
		}
		m.values[f.Index].set = true
	case f.Kind == protodesc.KindString, f.Kind == protodesc.KindBytes:
		if wt != wire.TypeBytes {
			return wireTypeErr(m, f, wt)
		}
		s, err := d.Bytes()
		if err != nil {
			return err
		}
		if f.Kind == protodesc.KindString && !utf8x.Valid(s) {
			return wire.ErrInvalidUTF8
		}
		// The copy. Never into v.str's old storage: a merge into a message
		// whose field was set by reference (SetBytes) must not write through
		// to the caller's buffer.
		v.str = append([]byte(nil), s...)
		m.values[f.Index].set = true
	default:
		if wt != f.Kind.WireType() {
			return wireTypeErr(m, f, wt)
		}
		bits, err := readScalar(d, f.Kind)
		if err != nil {
			return err
		}
		v.num = bits
		m.values[f.Index].set = true
	}
	return nil
}

func readScalar(d *wire.Decoder, k protodesc.Kind) (uint64, error) {
	switch k.WireType() {
	case wire.TypeFixed32:
		v, err := d.Fixed32()
		return uint64(v), err
	case wire.TypeFixed64:
		return d.Fixed64()
	default:
		v, err := d.Varint()
		if err != nil {
			return 0, err
		}
		return storedBits(k, v), nil
	}
}

func wireTypeErr(m *Message, f *protodesc.Field, wt wire.Type) error {
	return fmt.Errorf("protomsg: %s.%s: wire type %v does not match %v",
		m.desc.Name, f.Name, wt, f.Kind)
}

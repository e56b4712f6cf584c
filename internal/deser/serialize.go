package deser

import (
	"fmt"

	"dpurpc/internal/abi"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/wire"
)

// Serialize appends the canonical proto3 encoding of the arena object v to
// buf. It is the inverse of Fill and produces byte-identical output
// to protomsg.Marshal for the same logical content (fields in number order,
// zero values omitted).
//
// In the datapath this runs on the DPU for the response direction: the host
// writes a response *object* into the shared region, and the DPU serializes
// it into the xRPC response (Sec. III-A).
func Serialize(v abi.View, buf []byte) ([]byte, error) {
	if !v.Valid() {
		return buf, fmt.Errorf("deser: serialize of invalid view")
	}
	return serializeBody(v, buf, 0, DefaultMaxDepth)
}

// fieldWireBits converts a slot bit pattern into its varint wire value.
func fieldWireBits(k protodesc.Kind, bits uint64) uint64 {
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

func scalarSize(k protodesc.Kind, bits uint64) int {
	switch k.WireType() {
	case wire.TypeFixed32:
		return 4
	case wire.TypeFixed64:
		return 8
	default:
		return wire.SizeVarint(fieldWireBits(k, bits))
	}
}

func appendScalarValue(b []byte, k protodesc.Kind, bits uint64) []byte {
	switch k.WireType() {
	case wire.TypeFixed32:
		return wire.AppendFixed32(b, uint32(bits))
	case wire.TypeFixed64:
		return wire.AppendFixed64(b, bits)
	default:
		return wire.AppendVarint(b, fieldWireBits(k, bits))
	}
}

// scalarBits reads a singular scalar slot as raw bits.
func scalarBits(v abi.View, idx int, size uint32) uint64 {
	switch size {
	case 1:
		if v.Bool(idx) {
			return 1
		}
		return 0
	case 4:
		return uint64(v.U32(idx))
	default:
		return v.U64(idx)
	}
}

func bodySize(v abi.View, depth, maxDepth int) (int, error) {
	if depth >= maxDepth {
		return 0, ErrDepthExceeded
	}
	total := 0
	for i := range v.Lay.Fields {
		fl := &v.Lay.Fields[i]
		f := fl.Desc
		switch {
		case f.Repeated && fl.ElemSize != 0:
			n := v.Len(i)
			if n == 0 {
				continue
			}
			if f.Packed {
				body := 0
				for j := 0; j < n; j++ {
					body += scalarSize(f.Kind, v.NumAt(i, j))
				}
				total += wire.SizeTag(f.Number) + wire.SizeBytes(body)
			} else {
				for j := 0; j < n; j++ {
					total += wire.SizeTag(f.Number) + scalarSize(f.Kind, v.NumAt(i, j))
				}
			}
		case f.Repeated && (f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes):
			for j, n := 0, v.Len(i); j < n; j++ {
				total += wire.SizeTag(f.Number) + wire.SizeBytes(len(v.StrAt(i, j)))
			}
		case f.Repeated:
			for j, n := 0, v.Len(i); j < n; j++ {
				child, ok := v.MsgAt(i, j)
				if !ok {
					return 0, fmt.Errorf("deser: broken element ref in %s.%s", v.Lay.Msg.Name, f.Name)
				}
				sub, err := bodySize(child, depth+1, maxDepth)
				if err != nil {
					return 0, err
				}
				total += wire.SizeTag(f.Number) + wire.SizeBytes(sub)
			}
		case f.Kind == protodesc.KindMessage:
			child, ok := v.Msg(i)
			if !ok {
				continue
			}
			sub, err := bodySize(child, depth+1, maxDepth)
			if err != nil {
				return 0, err
			}
			total += wire.SizeTag(f.Number) + wire.SizeBytes(sub)
		case f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes:
			s := v.Str(i)
			if len(s) == 0 {
				continue
			}
			total += wire.SizeTag(f.Number) + wire.SizeBytes(len(s))
		default:
			bits := scalarBits(v, i, fl.Size)
			if bits == 0 {
				continue
			}
			total += wire.SizeTag(f.Number) + scalarSize(f.Kind, bits)
		}
	}
	return total, nil
}

func serializeBody(v abi.View, b []byte, depth, maxDepth int) ([]byte, error) {
	if depth >= maxDepth {
		return b, ErrDepthExceeded
	}
	for i := range v.Lay.Fields {
		fl := &v.Lay.Fields[i]
		f := fl.Desc
		switch {
		case f.Repeated && fl.ElemSize != 0:
			n := v.Len(i)
			if n == 0 {
				continue
			}
			if f.Packed {
				body := 0
				for j := 0; j < n; j++ {
					body += scalarSize(f.Kind, v.NumAt(i, j))
				}
				b = wire.AppendTag(b, f.Number, wire.TypeBytes)
				b = wire.AppendVarint(b, uint64(body))
				for j := 0; j < n; j++ {
					b = appendScalarValue(b, f.Kind, v.NumAt(i, j))
				}
			} else {
				for j := 0; j < n; j++ {
					b = wire.AppendTag(b, f.Number, f.Kind.WireType())
					b = appendScalarValue(b, f.Kind, v.NumAt(i, j))
				}
			}
		case f.Repeated && (f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes):
			for j, n := 0, v.Len(i); j < n; j++ {
				b = wire.AppendTag(b, f.Number, wire.TypeBytes)
				b = wire.AppendBytes(b, v.StrAt(i, j))
			}
		case f.Repeated:
			for j, n := 0, v.Len(i); j < n; j++ {
				child, ok := v.MsgAt(i, j)
				if !ok {
					return b, fmt.Errorf("deser: broken element ref in %s.%s", v.Lay.Msg.Name, f.Name)
				}
				sub, err := bodySize(child, depth+1, maxDepth)
				if err != nil {
					return b, err
				}
				b = wire.AppendTag(b, f.Number, wire.TypeBytes)
				b = wire.AppendVarint(b, uint64(sub))
				if b, err = serializeBody(child, b, depth+1, maxDepth); err != nil {
					return b, err
				}
			}
		case f.Kind == protodesc.KindMessage:
			child, ok := v.Msg(i)
			if !ok {
				continue
			}
			sub, err := bodySize(child, depth+1, maxDepth)
			if err != nil {
				return b, err
			}
			b = wire.AppendTag(b, f.Number, wire.TypeBytes)
			b = wire.AppendVarint(b, uint64(sub))
			if b, err = serializeBody(child, b, depth+1, maxDepth); err != nil {
				return b, err
			}
		case f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes:
			s := v.Str(i)
			if len(s) == 0 {
				continue
			}
			b = wire.AppendTag(b, f.Number, wire.TypeBytes)
			b = wire.AppendBytes(b, s)
		default:
			bits := scalarBits(v, i, fl.Size)
			if bits == 0 {
				continue
			}
			b = wire.AppendTag(b, f.Number, f.Kind.WireType())
			b = appendScalarValue(b, f.Kind, bits)
		}
	}
	return b, nil
}

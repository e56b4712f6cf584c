package abi

import (
	"encoding/binary"
	"fmt"
)

// Verify walks the object graph rooted at v and checks its structural
// integrity: every reference (nested objects, string data, repeated arrays)
// must lie within the region, class IDs must match the layouts, SSO string
// pointers must self-reference correctly, and the graph must be acyclic
// within the depth bound.
//
// The host can run Verify on inbound request views before dispatching them
// to business logic when it does not trust the DPU-side deserializer (e.g.
// during bring-up, or when the peer firmware is not attested). The
// deserializer's own tests guarantee it only produces verifiable objects;
// Verify is the independent check of that contract.
func Verify(v View) error {
	return verifyObj(v, 0, 64)
}

func verifyObj(v View, depth, maxDepth int) error {
	if depth >= maxDepth {
		return fmt.Errorf("abi: verify: nesting beyond %d", maxDepth)
	}
	obj := v.Reg.Slice(v.Off, uint64(v.Lay.Size))
	if obj == nil {
		return fmt.Errorf("abi: verify: object [%d,+%d) outside region", v.Off, v.Lay.Size)
	}
	if got := binary.LittleEndian.Uint64(obj[0:8]); got != uint64(v.Lay.ClassID) {
		return fmt.Errorf("abi: verify: classID %d, want %d (%s)", got, v.Lay.ClassID, v.Lay.Msg.Name)
	}
	for i := range v.Lay.Fields {
		fl := &v.Lay.Fields[i]
		if !v.Has(i) {
			continue
		}
		switch {
		case fl.Repeated:
			hdr := obj[fl.Offset : fl.Offset+RepeatedHdrSize]
			ref := binary.LittleEndian.Uint64(hdr[0:8])
			count := binary.LittleEndian.Uint64(hdr[8:16])
			if count == 0 {
				continue
			}
			if count > uint64(len(v.Reg.Buf)) {
				return fmt.Errorf("abi: verify: %s.%s: implausible count %d",
					v.Lay.Msg.Name, fl.Desc.Name, count)
			}
			var elem uint64
			switch {
			case fl.ElemSize != 0:
				elem = uint64(fl.ElemSize)
			case fl.Child != nil:
				elem = RefSize
			default:
				elem = StringRecordSize
			}
			data := v.Reg.Slice(ref, count*elem)
			if data == nil {
				return fmt.Errorf("abi: verify: %s.%s: array [%d,+%d) outside region",
					v.Lay.Msg.Name, fl.Desc.Name, ref, count*elem)
			}
			switch {
			case fl.ElemSize != 0:
				// Scalar payloads need no further checks.
			case fl.Child != nil:
				for j := uint64(0); j < count; j++ {
					childRef := binary.LittleEndian.Uint64(data[j*8:])
					if childRef == NullRef {
						return fmt.Errorf("abi: verify: %s.%s[%d]: null element",
							v.Lay.Msg.Name, fl.Desc.Name, j)
					}
					if err := verifyObj(View{Reg: v.Reg, Off: childRef, Lay: fl.Child}, depth+1, maxDepth); err != nil {
						return err
					}
				}
			default:
				for j := uint64(0); j < count; j++ {
					rec := data[j*StringRecordSize : (j+1)*StringRecordSize]
					if err := verifyStringRecord(&v.Reg, ref+j*StringRecordSize, rec,
						v.Lay.Msg.Name, fl.Desc.Name); err != nil {
						return err
					}
				}
			}
		case fl.Kind.IsPackable(): // singular scalar: in-object, nothing to chase
		case fl.Child != nil:
			ref := binary.LittleEndian.Uint64(obj[fl.Offset : fl.Offset+8])
			if ref == NullRef {
				continue
			}
			if err := verifyObj(View{Reg: v.Reg, Off: ref, Lay: fl.Child}, depth+1, maxDepth); err != nil {
				return err
			}
		default: // string/bytes
			rec := obj[fl.Offset : fl.Offset+StringRecordSize]
			if err := verifyStringRecord(&v.Reg, v.Off+uint64(fl.Offset), rec,
				v.Lay.Msg.Name, fl.Desc.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

func verifyStringRecord(reg *Region, recOff uint64, rec []byte, msg, field string) error {
	ref := binary.LittleEndian.Uint64(rec[0:8])
	size := binary.LittleEndian.Uint64(rec[8:16])
	if size == 0 {
		return nil
	}
	if ref == recOff+16 {
		// SSO: data lives in the record's own buffer.
		if size > SSOCapacity {
			return fmt.Errorf("abi: verify: %s.%s: SSO size %d > %d", msg, field, size, SSOCapacity)
		}
		return nil
	}
	if size <= SSOCapacity {
		return fmt.Errorf("abi: verify: %s.%s: %d-byte string not SSO", msg, field, size)
	}
	if reg.Slice(ref, size) == nil {
		return fmt.Errorf("abi: verify: %s.%s: data [%d,+%d) outside region", msg, field, ref, size)
	}
	return nil
}

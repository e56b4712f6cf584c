package deser

import (
	"errors"
	"fmt"

	"dpurpc/internal/abi"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/wire"
)

// elemSize returns the arena element width of a repeated field.
func elemSize(fl *abi.FieldLayout) int {
	switch {
	case fl.ElemSize != 0:
		return int(fl.ElemSize)
	case fl.Kind == protodesc.KindMessage:
		return abi.RefSize
	default:
		return abi.StringRecordSize
	}
}

// bumpSizer mirrors arena.Bump's offset arithmetic without a backing
// buffer. Alignment is relative to offset 0, exactly as in Bump.Alloc.
type bumpSizer struct{ off int }

func (s *bumpSizer) alloc(n, align int) {
	s.off = ((s.off + align - 1) &^ (align - 1)) + n
}

// MeasureExact computes exactly the arena bytes Deserialize will consume
// for data when decoding into a fresh bump whose base region offset is
// nonzero (the datapath case; base 0 prepends an 8-byte NullRef guard that
// this function does not count). It replays the deserializer's allocation
// sequence — object, array pre-allocations, string spills, nested objects
// — through the same alignment arithmetic, without writing anything.
//
// The DPU datapath (reserve → build → commit) depends on exactness: a slot's
// stride is fixed when it is reserved, before the build runs, so an
// overestimate would pad the block and an underestimate would overflow the
// slot.
//
// Runtime-only failures (UTF-8 validation, arena exhaustion) are not
// predicted here; structural errors (malformed wire data, wire-type
// mismatches, duplicate singular messages, excessive depth) are reported
// exactly as Deserialize would.
func MeasureExact(lay *abi.Layout, data []byte) (int, error) {
	var s bumpSizer
	if err := measureExactBody(lay, data, &s, 0, DefaultMaxDepth); err != nil {
		return 0, err
	}
	return s.off, nil
}

func measureExactBody(lay *abi.Layout, body []byte, s *bumpSizer, depth, maxDepth int) error {
	if depth >= maxDepth {
		return ErrDepthExceeded
	}
	s.alloc(int(lay.Size), abi.ObjectAlign)

	// Mirror fill: the count pass and array pre-allocations run first, in
	// field-index order.
	hasRepeated := false
	for i := range lay.Fields {
		if lay.Fields[i].Repeated {
			hasRepeated = true
			break
		}
	}
	var counts []uint32
	var seen []bool
	if hasRepeated {
		counts = make([]uint32, len(lay.Fields))
		if err := countRepeated(lay, body, counts); err != nil {
			return err
		}
		for i := range lay.Fields {
			fl := &lay.Fields[i]
			if !fl.Repeated || counts[i] == 0 {
				continue
			}
			elem := elemSize(fl)
			alignTo := elem
			if alignTo > 8 {
				alignTo = 8
			}
			s.alloc(int(counts[i])*elem, alignTo)
		}
	}

	// Mirror pass 2 in wire order: string spills and nested objects are the
	// only allocations left.
	pos := 0
	for pos < len(body) {
		num, wt, n, err := wire.Tag(body[pos:])
		if err != nil {
			if errors.Is(err, wire.ErrInvalidTag) {
				return err
			}
			return fmt.Errorf("%w: bad tag", ErrMalformed)
		}
		pos += n
		f := lay.Msg.FieldByNumber(num)
		if f == nil {
			skipped, err := wire.SkipValue(body[pos:], wt)
			if err != nil {
				return err
			}
			pos += skipped
			continue
		}
		fl := &lay.Fields[f.Index]
		switch {
		case f.Repeated && fl.ElemSize != 0:
			// Scalar elements land in the pre-counted array; packed payloads
			// were validated by the count pass. Unpacked elements must still
			// match the scalar wire type, as the fill enforces.
			if wt == wire.TypeBytes {
				payload, n := wire.Bytes(body[pos:])
				if n == 0 {
					return fmt.Errorf("%w: truncated packed field", ErrMalformed)
				}
				_ = payload
				pos += n
			} else {
				if wt != f.Kind.WireType() {
					return ErrWireTypeMismatch
				}
				skipped, err := wire.SkipValue(body[pos:], wt)
				if err != nil {
					return err
				}
				pos += skipped
			}
		case f.Repeated && (f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes):
			if wt != wire.TypeBytes {
				return wireErr(lay, f, wt)
			}
			payload, n := wire.Bytes(body[pos:])
			if n == 0 {
				return fmt.Errorf("%w: truncated string element", ErrMalformed)
			}
			pos += n
			if len(payload) > abi.SSOCapacity {
				s.alloc(len(payload), 1)
			}
		case f.Repeated: // repeated message
			if wt != wire.TypeBytes {
				return wireErr(lay, f, wt)
			}
			payload, n := wire.Bytes(body[pos:])
			if n == 0 {
				return fmt.Errorf("%w: truncated message element", ErrMalformed)
			}
			pos += n
			if err := measureExactBody(fl.Child, payload, s, depth+1, maxDepth); err != nil {
				return err
			}
		case f.Kind == protodesc.KindMessage:
			if wt != wire.TypeBytes {
				return wireErr(lay, f, wt)
			}
			payload, n := wire.Bytes(body[pos:])
			if n == 0 {
				return fmt.Errorf("%w: truncated nested message", ErrMalformed)
			}
			pos += n
			if seen == nil {
				seen = make([]bool, len(lay.Fields))
			}
			if seen[f.Index] {
				return fmt.Errorf("%w: %s.%s", ErrDuplicateSubfield, lay.Msg.Name, f.Name)
			}
			seen[f.Index] = true
			if err := measureExactBody(fl.Child, payload, s, depth+1, maxDepth); err != nil {
				return err
			}
		case f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes:
			if wt != wire.TypeBytes {
				return wireErr(lay, f, wt)
			}
			payload, n := wire.Bytes(body[pos:])
			if n == 0 {
				return fmt.Errorf("%w: truncated string", ErrMalformed)
			}
			pos += n
			if len(payload) > abi.SSOCapacity {
				s.alloc(len(payload), 1)
			}
		default: // singular scalar
			if wt != f.Kind.WireType() {
				return ErrWireTypeMismatch
			}
			skipped, err := wire.SkipValue(body[pos:], wt)
			if err != nil {
				return err
			}
			pos += skipped
		}
	}
	return nil
}

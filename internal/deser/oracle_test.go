package deser

// The interpretive decoder: the reference the production decoder (Scan, then
// Fill or FillSG) is checked against. It walks the layout's schema per
// message — a count pass for repeated fields, then a fill pass in wire
// order — and allocates object, arrays, then string spills and nested
// objects in exactly the sequence Fill replays. Its bump.Used() after a
// decode into a fresh arena is the exact-size reference for Notes.Need.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/wire"
)

// oracleFrame is one message's scratch: the decoder's frame plus the count
// pass's repeated-element counts per field.
type oracleFrame struct {
	frame
	counts []uint32
}

// Deserialize decodes data (one serialized message of layout lay) into a new
// object allocated from bump, whose byte 0 sits at region offset base. It
// returns the region offset of the root object.
func (d *Deserializer) Deserialize(lay *abi.Layout, data []byte, bump *arena.Bump, base uint64) (uint64, error) {
	if base == 0 && bump.Used() == 0 {
		// Reserve offset 0 so NullRef stays unambiguous.
		if _, _, err := bump.Alloc(GuardBytes, 8); err != nil {
			return 0, err
		}
	}
	before := bump.Used()
	off, err := d.message(lay, data, bump, base, 0)
	if err != nil {
		return 0, err
	}
	d.Stats.ArenaBytes += uint64(bump.Used() - before)
	return off, nil
}

// message allocates and fills one object from body.
func (d *Deserializer) message(lay *abi.Layout, body []byte, bump *arena.Bump, base uint64, depth int) (uint64, error) {
	if depth >= d.opts.MaxDepth {
		return 0, ErrDepthExceeded
	}
	obj, bumpOff, err := bump.Alloc(int(lay.Size), abi.ObjectAlign)
	if err != nil {
		return 0, err
	}
	copy(obj, lay.Default) // vptr/classID comes along, as in Sec. V-B
	objOff := base + uint64(bumpOff)
	d.Stats.Messages++
	if err := d.fill(lay, body, obj, objOff, bump, base, depth); err != nil {
		return 0, err
	}
	return objOff, nil
}

// fill decodes body into an existing object.
func (d *Deserializer) fill(lay *abi.Layout, body []byte, obj []byte, objOff uint64, bump *arena.Bump, base uint64, depth int) error {
	fr := &oracleFrame{counts: make([]uint32, len(lay.Fields))}
	fr.prepare(len(lay.Fields))

	// Pass 1 (only when the class has repeated fields): count elements so
	// each repeated field gets one contiguous array, as arena objects
	// require. Classes without repeated fields — e.g. the paper's Small
	// message — are decoded in a single pass.
	hasRepeated := false
	for i := range lay.Fields {
		if lay.Fields[i].Repeated {
			hasRepeated = true
			break
		}
	}
	if hasRepeated {
		if err := d.countPass(lay, body, fr); err != nil {
			return err
		}
		// Pre-allocate the arrays.
		for i := range lay.Fields {
			fl := &lay.Fields[i]
			if !fl.Repeated || fr.counts[i] == 0 {
				continue
			}
			var elem int
			switch {
			case fl.ElemSize != 0:
				elem = int(fl.ElemSize)
			case fl.Kind == protodesc.KindMessage:
				elem = abi.RefSize
			default:
				elem = abi.StringRecordSize
			}
			alignTo := elem
			if alignTo > 8 {
				alignTo = 8
			}
			arr, arrOff, err := bump.Alloc(int(fr.counts[i])*elem, alignTo)
			if err != nil {
				return err
			}
			_ = arr
			fr.refs[i] = base + uint64(arrOff)
			hdr := obj[fl.Offset : fl.Offset+abi.RepeatedHdrSize]
			binary.LittleEndian.PutUint64(hdr[0:8], fr.refs[i])
			binary.LittleEndian.PutUint64(hdr[8:16], uint64(fr.counts[i]))
			setPresence(obj, lay, fl.Desc.Index)
		}
	}

	// Pass 2: decode values.
	pos := 0
	for pos < len(body) {
		num, wt, n, err := wire.Tag(body[pos:])
		if err != nil {
			if errors.Is(err, wire.ErrInvalidTag) {
				return err
			}
			return fmt.Errorf("%w: bad tag", ErrMalformed)
		}
		d.Stats.VarintBytes += uint64(n)
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
		consumed, err := d.value(lay, fl, fr, body[pos:], obj, objOff, wt, bump, base, depth)
		if err != nil {
			return err
		}
		pos += consumed
	}
	return nil
}

// countPass scans body counting repeated elements per field. Values are
// skipped structurally; nested bodies are not descended into (their own fill
// performs its own count).
func (d *Deserializer) countPass(lay *abi.Layout, body []byte, fr *oracleFrame) error {
	return countRepeated(lay, body, fr.counts)
}

// countRepeated is the count pass proper.
func countRepeated(lay *abi.Layout, body []byte, counts []uint32) error {
	pos := 0
	for pos < len(body) {
		num, wt, n, err := wire.Tag(body[pos:])
		if err != nil {
			if errors.Is(err, wire.ErrInvalidTag) {
				return err
			}
			return fmt.Errorf("%w: bad tag in count pass", ErrMalformed)
		}
		pos += n
		f := lay.Msg.FieldByNumber(num)
		if f == nil || !f.Repeated {
			skipped, err := wire.SkipValue(body[pos:], wt)
			if err != nil {
				return err
			}
			pos += skipped
			continue
		}
		fl := &lay.Fields[f.Index]
		switch {
		case fl.ElemSize != 0 && wt == wire.TypeBytes:
			// Packed: count elements inside the record.
			payload, n := wire.Bytes(body[pos:])
			if n == 0 {
				return fmt.Errorf("%w: truncated packed field", ErrMalformed)
			}
			pos += n
			if fs := f.Kind.FixedSize(); fs != 0 {
				if len(payload)%fs != 0 {
					return fmt.Errorf("%w: packed fixed payload not a multiple of %d", ErrMalformed, fs)
				}
				counts[f.Index] += uint32(len(payload) / fs)
			} else {
				// Count varints: one per byte with the continuation bit clear.
				cnt := 0
				for _, c := range payload {
					if c < 0x80 {
						cnt++
					}
				}
				if len(payload) > 0 && payload[len(payload)-1] >= 0x80 {
					return fmt.Errorf("%w: packed varint payload truncated", ErrMalformed)
				}
				counts[f.Index] += uint32(cnt)
			}
		default:
			skipped, err := wire.SkipValue(body[pos:], wt)
			if err != nil {
				return err
			}
			pos += skipped
			counts[f.Index]++
		}
	}
	return nil
}

// value decodes one field value at the start of rest and returns the bytes
// consumed.
func (d *Deserializer) value(lay *abi.Layout, fl *abi.FieldLayout, fr *oracleFrame, rest []byte, obj []byte, objOff uint64, wt wire.Type, bump *arena.Bump, base uint64, depth int) (int, error) {
	f := fl.Desc
	d.Stats.Fields++
	switch {
	case f.Repeated && fl.ElemSize != 0:
		return d.repeatedScalar(fl, fr, rest, wt, bump, base)
	case f.Repeated && (f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes):
		if wt != wire.TypeBytes {
			return 0, wireErr(lay, f, wt)
		}
		payload, n := wire.Bytes(rest)
		if n == 0 {
			return 0, fmt.Errorf("%w: truncated string element", ErrMalformed)
		}
		d.Stats.VarintBytes += uint64(n - len(payload))
		i := fr.cursors[f.Index]
		if i >= fr.counts[f.Index] {
			return 0, ErrElementCountChange
		}
		fr.cursors[f.Index]++
		recOff := fr.refs[f.Index] + uint64(i)*abi.StringRecordSize
		rec, err := sliceAt(bump, base, recOff, abi.StringRecordSize)
		if err != nil {
			return 0, err
		}
		if err := d.putString(f.Kind, rec, recOff, payload, bump, base); err != nil {
			return 0, err
		}
		return n, nil
	case f.Repeated: // repeated message
		if wt != wire.TypeBytes {
			return 0, wireErr(lay, f, wt)
		}
		payload, n := wire.Bytes(rest)
		if n == 0 {
			return 0, fmt.Errorf("%w: truncated message element", ErrMalformed)
		}
		d.Stats.VarintBytes += uint64(n - len(payload))
		i := fr.cursors[f.Index]
		if i >= fr.counts[f.Index] {
			return 0, ErrElementCountChange
		}
		fr.cursors[f.Index]++
		childOff, err := d.message(fl.Child, payload, bump, base, depth+1)
		if err != nil {
			return 0, err
		}
		refOff := fr.refs[f.Index] + uint64(i)*abi.RefSize
		refSlot, err := sliceAt(bump, base, refOff, abi.RefSize)
		if err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint64(refSlot, childOff)
		return n, nil
	case f.Kind == protodesc.KindMessage:
		if wt != wire.TypeBytes {
			return 0, wireErr(lay, f, wt)
		}
		payload, n := wire.Bytes(rest)
		if n == 0 {
			return 0, fmt.Errorf("%w: truncated nested message", ErrMalformed)
		}
		d.Stats.VarintBytes += uint64(n - len(payload))
		if fr.seen[f.Index] {
			return 0, fmt.Errorf("%w: %s.%s", ErrDuplicateSubfield, lay.Msg.Name, f.Name)
		}
		fr.seen[f.Index] = true
		childOff, err := d.message(fl.Child, payload, bump, base, depth+1)
		if err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint64(obj[fl.Offset:fl.Offset+8], childOff)
		setPresence(obj, lay, f.Index)
		return n, nil
	case f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes:
		if wt != wire.TypeBytes {
			return 0, wireErr(lay, f, wt)
		}
		payload, n := wire.Bytes(rest)
		if n == 0 {
			return 0, fmt.Errorf("%w: truncated string", ErrMalformed)
		}
		d.Stats.VarintBytes += uint64(n - len(payload))
		rec := obj[fl.Offset : fl.Offset+abi.StringRecordSize]
		if err := d.putString(f.Kind, rec, objOff+uint64(fl.Offset), payload, bump, base); err != nil {
			return 0, err
		}
		setPresence(obj, lay, f.Index)
		return n, nil
	default: // singular scalar
		bits, n, err := d.scalar(rest, f.Kind, wt)
		if err != nil {
			return 0, wrapScalarErr(lay, f, err)
		}
		slot := obj[fl.Offset : fl.Offset+fl.Size]
		switch fl.Size {
		case 1:
			if bits != 0 {
				slot[0] = 1
			} else {
				slot[0] = 0
			}
		case 4:
			binary.LittleEndian.PutUint32(slot, uint32(bits))
		default:
			binary.LittleEndian.PutUint64(slot, bits)
		}
		setPresence(obj, lay, f.Index)
		return n, nil
	}
}

// repeatedScalar decodes one wire value (packed record or single element) of
// a repeated scalar field directly into its pre-allocated array.
func (d *Deserializer) repeatedScalar(fl *abi.FieldLayout, fr *oracleFrame, rest []byte, wt wire.Type, bump *arena.Bump, base uint64) (int, error) {
	f := fl.Desc
	elem := int(fl.ElemSize)
	writeElem := func(arr []byte, i uint32, bits uint64) {
		switch elem {
		case 1:
			if bits != 0 {
				arr[i] = 1
			} else {
				arr[i] = 0
			}
		case 4:
			binary.LittleEndian.PutUint32(arr[int(i)*4:], uint32(bits))
		default:
			binary.LittleEndian.PutUint64(arr[int(i)*8:], bits)
		}
	}
	if fr.counts[f.Index] == 0 {
		return 0, ErrElementCountChange
	}
	arr, err := sliceAt(bump, base, fr.refs[f.Index], int(fr.counts[f.Index])*elem)
	if err != nil {
		return 0, err
	}
	if wt == wire.TypeBytes {
		payload, n := wire.Bytes(rest)
		if n == 0 {
			return 0, fmt.Errorf("%w: truncated packed field", ErrMalformed)
		}
		d.Stats.VarintBytes += uint64(n - len(payload))
		if fs := f.Kind.FixedSize(); fs != 0 {
			cnt := uint32(len(payload) / fs)
			if fr.cursors[f.Index]+cnt > fr.counts[f.Index] {
				return 0, ErrElementCountChange
			}
			if fs == elem {
				// Bulk copy: the fast path for fixed-width arrays (the
				// paper's "high copy cost" message class).
				copy(arr[int(fr.cursors[f.Index])*elem:], payload)
				d.Stats.CopyBytes += uint64(len(payload))
				d.Stats.FixedBytes += uint64(len(payload))
				fr.cursors[f.Index] += cnt
			} else {
				pos := 0
				for i := uint32(0); i < cnt; i++ {
					var bits uint64
					if fs == 4 {
						v, _ := wire.Fixed32(payload[pos:])
						bits = uint64(v)
					} else {
						v, _ := wire.Fixed64(payload[pos:])
						bits = v
					}
					pos += fs
					d.Stats.FixedBytes += uint64(fs)
					writeElem(arr, fr.cursors[f.Index], bits)
					fr.cursors[f.Index]++
				}
			}
			return n, nil
		}
		// Packed varints: the paper's "high computational cost" class.
		pos := 0
		for pos < len(payload) {
			v, vn := wire.Uvarint(payload[pos:])
			if vn <= 0 {
				return 0, fmt.Errorf("%w: bad packed varint", ErrMalformed)
			}
			d.Stats.VarintBytes += uint64(vn)
			pos += vn
			if fr.cursors[f.Index] >= fr.counts[f.Index] {
				return 0, ErrElementCountChange
			}
			writeElem(arr, fr.cursors[f.Index], storedScalar(f.Kind, v))
			fr.cursors[f.Index]++
		}
		return n, nil
	}
	// Unpacked single element.
	bits, n, err := d.scalar(rest, f.Kind, wt)
	if err != nil {
		return 0, err
	}
	if fr.cursors[f.Index] >= fr.counts[f.Index] {
		return 0, ErrElementCountChange
	}
	writeElem(arr, fr.cursors[f.Index], bits)
	fr.cursors[f.Index]++
	return n, nil
}

// putString writes payload into a 32-byte string record, inline (SSO) or
// spilled to the arena, validating UTF-8 for string kinds.
func (d *Deserializer) putString(k protodesc.Kind, rec []byte, recOff uint64, payload []byte, bump *arena.Bump, base uint64) error {
	if k == protodesc.KindString && !d.validateUTF8(payload) {
		return wire.ErrInvalidUTF8
	}
	d.Stats.CopyBytes += uint64(len(payload))
	if len(payload) <= abi.SSOCapacity {
		abi.PutStringInline(rec, recOff, payload)
		return nil
	}
	dst, dstOff, err := bump.Alloc(len(payload), 1)
	if err != nil {
		return err
	}
	copy(dst, payload)
	abi.PutStringRef(rec, base+uint64(dstOff), len(payload))
	return nil
}

// maxOracleArena bounds the scratch oracleDecode grows into: a message that
// needs more is reported as arena.ErrOutOfMemory.
const maxOracleArena = 1 << 22

// oracleDecode runs the interpretive decoder on data into a fresh arena at
// region offset base. It returns the root offset and the arena cut to the
// bytes the decode used, whose length is the exact-size reference for
// Notes.Need (plus GuardBytes at base 0). The scratch doubles until the
// message fits; only the attempt that fits is charged to d.Stats.
func oracleDecode(d *Deserializer, lay *abi.Layout, data []byte, base uint64) (uint64, []byte, error) {
	stats := d.Stats
	for size := 4096 + 16*len(data); ; size *= 2 {
		d.Stats = stats
		bump := arena.NewBump(make([]byte, size))
		off, err := d.Deserialize(lay, data, bump, base)
		if errors.Is(err, arena.ErrOutOfMemory) && size < maxOracleArena {
			continue
		}
		if err != nil {
			return 0, nil, err
		}
		return off, bump.Bytes()[:bump.Used()], nil
	}
}

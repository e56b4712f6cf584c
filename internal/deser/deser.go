// Package deser implements the paper's custom protobuf deserializer
// (Sec. V): it decodes wire bytes *directly into the shared-ABI object
// layout* inside an arena block, so the receiver of the block (the host)
// gets a ready-to-use object with zero further work.
//
// Differences from the standard deserializer (internal/protomsg.Unmarshal):
//
//   - All storage comes from a bump arena inside the block being sent; the
//     system allocator is never touched (Sec. VI-C5's zero-LLC-miss
//     property).
//   - Strings are crafted in place with the libstdc++ SSO layout (Fig. 6),
//     including the self-referential data pointer for small strings.
//   - References are region-relative offsets, valid on both sides of the
//     shared address space without a fix-up pass (Sec. III-B).
//   - The deserializer is instrumented: it counts varint bytes decoded,
//     payload bytes copied, and UTF-8 bytes validated, which the DPU/host
//     cost models (internal/cpumodel) convert into cycles.
//
// Deliberate restriction: a singular message field may appear at most once
// in a body (canonical encoders never emit duplicates; merging inside a
// fixed arena would require resizing, which arena objects cannot do —
// Sec. II-B).
package deser

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/utf8x"
	"dpurpc/internal/wire"
)

// Errors returned by the deserializer.
var (
	ErrDepthExceeded      = errors.New("deser: message nesting too deep")
	ErrDuplicateSubfield  = errors.New("deser: duplicate singular message field (arena merge unsupported)")
	ErrWireTypeMismatch   = errors.New("deser: wire type mismatch")
	ErrMalformed          = errors.New("deser: malformed message")
	ErrElementCountChange = errors.New("deser: element count changed between passes")
	ErrTooLarge           = errors.New("deser: decoded message exceeds the caller's limit")
)

// DefaultMaxDepth matches protobuf's default recursion limit.
const DefaultMaxDepth = 100

// GuardBytes is the size of the NullRef guard Deserialize and Fill prepend
// when decoding into a fresh arena at base region offset 0, so offset 0
// stays unambiguous. MeasureExact and Notes.Need do not include it; base-0
// callers must add it to the reported size.
const GuardBytes = 8

// Options configure a Deserializer.
type Options struct {
	// ValidateUTF8 enables UTF-8 validation of string fields (on by
	// default in gRPC; one of the paper's measured cost centers).
	ValidateUTF8 bool
	// MaxDepth bounds message nesting (0 means DefaultMaxDepth).
	MaxDepth int
	// ScalarUTF8 selects the byte-at-a-time validator, representing a core
	// without vector units (the DPU side). The word-at-a-time validator
	// stands in for the host's SIMD path.
	ScalarUTF8 bool
	// SGPayloadMin, when > 0, enables scatter-gather payload notes on the
	// planned path: a singular string/bytes payload of at least this many
	// bytes is not copied into the object area during Fill — the scan
	// emits a payload-ref note and FillSG writes the SSO offset form
	// pointing at a dedicated payload segment of the registered region
	// (laid out by Segments). 0 (the default) keeps every payload
	// inline, byte-identical to the pre-SG deserializer.
	SGPayloadMin int
}

// Stats counts the operations the cost models charge for. All counters are
// cumulative; use Reset between measurement windows.
type Stats struct {
	VarintBytes uint64 // bytes consumed by varint decoding (tags + values)
	FixedBytes  uint64 // bytes consumed by fixed32/64 decoding
	CopyBytes   uint64 // payload bytes copied into the arena
	UTF8Bytes   uint64 // bytes run through UTF-8 validation
	Messages    uint64 // message bodies deserialized (incl. nested)
	Fields      uint64 // field values decoded
	ArenaBytes  uint64 // arena bytes consumed
	// The compiled-plan path (Scan + Fill) splits its work into decode and
	// replay. ScannedBytes counts wire bytes covered by the single
	// structure-discovery pass; ReplayedBytes counts arena bytes stored by
	// replaying pre-decoded parse notes (no re-decode, no re-validation).
	// Both stay zero on the interpretive path.
	ScannedBytes  uint64
	ReplayedBytes uint64
	// RefBytes counts payload bytes carried as scatter-gather segments and
	// referenced by offset instead of copied by the fill: the deserializer
	// never touches them again after the single placement memcpy, so the
	// cost models price them at PayloadRefNS instead of CopyByteNS /
	// ReplayByteNS. Zero unless Options.SGPayloadMin is configured.
	RefBytes uint64
}

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = Stats{} }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.VarintBytes += other.VarintBytes
	s.FixedBytes += other.FixedBytes
	s.CopyBytes += other.CopyBytes
	s.UTF8Bytes += other.UTF8Bytes
	s.Messages += other.Messages
	s.Fields += other.Fields
	s.ArenaBytes += other.ArenaBytes
	s.ScannedBytes += other.ScannedBytes
	s.ReplayedBytes += other.ReplayedBytes
	s.RefBytes += other.RefBytes
}

// Sub removes other from s — the inverse of Add, for measuring the counter
// movement of one window as the difference of two cumulative snapshots.
func (s *Stats) Sub(other Stats) {
	s.VarintBytes -= other.VarintBytes
	s.FixedBytes -= other.FixedBytes
	s.CopyBytes -= other.CopyBytes
	s.UTF8Bytes -= other.UTF8Bytes
	s.Messages -= other.Messages
	s.Fields -= other.Fields
	s.ArenaBytes -= other.ArenaBytes
	s.ScannedBytes -= other.ScannedBytes
	s.ReplayedBytes -= other.ReplayedBytes
	s.RefBytes -= other.RefBytes
}

// frame is per-nesting-level scratch (counts and cursors per field),
// recycled across messages so steady-state deserialization performs zero
// heap allocations.
type frame struct {
	counts  []uint32 // repeated-element counts from the count pass
	cursors []uint32 // fill cursors
	refs    []uint64 // array base region-offsets per repeated field
	seen    []bool   // singular message fields already materialized
}

func (f *frame) prepare(n int) {
	if cap(f.counts) < n {
		f.counts = make([]uint32, n)
		f.cursors = make([]uint32, n)
		f.refs = make([]uint64, n)
		f.seen = make([]bool, n)
	}
	f.counts = f.counts[:n]
	f.cursors = f.cursors[:n]
	f.refs = f.refs[:n]
	f.seen = f.seen[:n]
	for i := range f.counts {
		f.counts[i], f.cursors[i], f.refs[i], f.seen[i] = 0, 0, 0, false
	}
}

// Deserializer decodes wire bytes into arena objects. It is not safe for
// concurrent use; each poller owns one (paper Sec. III-C threading model).
type Deserializer struct {
	opts   Options
	frames []*frame
	notes  *Notes // DeserializePlanned's owned parse-notes scratch
	segCur uint64 // FillSG's cursor into the payload-segment area (region offset)
	// Stats accumulates instrumentation across calls.
	Stats Stats
}

// New returns a Deserializer with the given options.
func New(opts Options) *Deserializer {
	if opts.MaxDepth == 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	return &Deserializer{opts: opts}
}

func (d *Deserializer) frame(depth int) *frame {
	for len(d.frames) <= depth {
		d.frames = append(d.frames, &frame{})
	}
	return d.frames[depth]
}

func (d *Deserializer) validateUTF8(b []byte) bool {
	if !d.opts.ValidateUTF8 {
		return true
	}
	d.Stats.UTF8Bytes += uint64(len(b))
	if d.opts.ScalarUTF8 {
		return utf8x.ValidScalar(b)
	}
	return utf8x.Valid(b)
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
	fr := d.frame(depth)
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
func (d *Deserializer) countPass(lay *abi.Layout, body []byte, fr *frame) error {
	return countRepeated(lay, body, fr.counts)
}

// countRepeated is the count pass proper, shared with MeasureExact (which
// must replay the same array pre-allocations the fill performs).
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

// setPresence sets the hasbit for field index idx in obj.
func setPresence(obj []byte, lay *abi.Layout, idx int) {
	word := lay.PresenceOff + uint32(idx/32)*4
	w := binary.LittleEndian.Uint32(obj[word : word+4])
	binary.LittleEndian.PutUint32(obj[word:word+4], w|1<<(uint(idx)%32))
}

// value decodes one field value at the start of rest and returns the bytes
// consumed.
func (d *Deserializer) value(lay *abi.Layout, fl *abi.FieldLayout, fr *frame, rest []byte, obj []byte, objOff uint64, wt wire.Type, bump *arena.Bump, base uint64, depth int) (int, error) {
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
func (d *Deserializer) repeatedScalar(fl *abi.FieldLayout, fr *frame, rest []byte, wt wire.Type, bump *arena.Bump, base uint64) (int, error) {
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

// scalar decodes one singular scalar value, charging decode stats.
func (d *Deserializer) scalar(rest []byte, k protodesc.Kind, wt wire.Type) (uint64, int, error) {
	v, n, err := decodeScalar(rest, k, wt)
	if err != nil {
		return 0, 0, err
	}
	switch k.WireType() {
	case wire.TypeFixed32:
		d.Stats.FixedBytes += 4
	case wire.TypeFixed64:
		d.Stats.FixedBytes += 8
	default:
		d.Stats.VarintBytes += uint64(n)
	}
	return v, n, nil
}

// scalarBits is the stat-free decode of one singular scalar value, shared
// between the charging path above and the fast path's replay mode (where
// the scan already charged the decode).
func decodeScalar(rest []byte, k protodesc.Kind, wt wire.Type) (uint64, int, error) {
	switch k.WireType() {
	case wire.TypeFixed32:
		if wt != wire.TypeFixed32 {
			return 0, 0, ErrWireTypeMismatch
		}
		v, n := wire.Fixed32(rest)
		if n == 0 {
			return 0, 0, ErrMalformed
		}
		return uint64(v), n, nil
	case wire.TypeFixed64:
		if wt != wire.TypeFixed64 {
			return 0, 0, ErrWireTypeMismatch
		}
		v, n := wire.Fixed64(rest)
		if n == 0 {
			return 0, 0, ErrMalformed
		}
		return v, n, nil
	default:
		if wt != wire.TypeVarint {
			return 0, 0, ErrWireTypeMismatch
		}
		v, n := wire.Uvarint(rest)
		if n <= 0 {
			return 0, 0, ErrMalformed
		}
		return storedScalar(k, v), n, nil
	}
}

// storedScalar converts a decoded varint into the slot bit pattern.
func storedScalar(k protodesc.Kind, v uint64) uint64 {
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

func wireErr(lay *abi.Layout, f *protodesc.Field, wt wire.Type) error {
	return fmt.Errorf("%w: %s.%s got %v", ErrWireTypeMismatch, lay.Msg.Name, f.Name, wt)
}

func wrapScalarErr(lay *abi.Layout, f *protodesc.Field, err error) error {
	return fmt.Errorf("%s.%s: %w", lay.Msg.Name, f.Name, err)
}

// sliceAt returns n bytes of the bump buffer at region offset off.
func sliceAt(bump *arena.Bump, base, off uint64, n int) ([]byte, error) {
	buf := bump.Bytes()
	if off < base {
		return nil, ErrMalformed
	}
	start := off - base
	if start+uint64(n) > uint64(len(buf)) {
		return nil, ErrMalformed
	}
	return buf[start : start+uint64(n)], nil
}

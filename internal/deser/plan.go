// Decode-plan compilation: the schema walk the interpretive deserializer
// performs per message — map lookups through protodesc, per-tag kind
// dispatch, and three separate passes over the wire bytes (measure, count,
// fill) — is hoisted to stack-build time. Each abi.Layout compiles once into
// a Plan, a flat field-number-indexed table of pre-resolved actions, and the
// hot path becomes:
//
//	Scan  — one structure-discovery pass over the wire bytes producing the
//	        exact arena size, per-message repeated-element counts, and a
//	        compact parse-notes record in pooled scratch: field boundaries,
//	        and packed varints decoded a word at a time and written at their
//	        arena width (zigzag decoded, 32-bit kinds narrowed, bools
//	        normalized) into one element stream;
//	Fill  — a replay of the notes into the arena with no re-decoding and no
//	        re-validation; a packed varint run is one copy out of the
//	        element stream.
//
// Decoding stays in Scan on purpose: on the DPU Scan runs on the
// xRPC handler goroutines, in parallel across requests, while Fill runs on
// the connection's single poller.
//
// Fill reproduces the interpretive deserializer's allocation sequence
// byte-for-byte: object, array pre-allocations in field-index order, then
// string spills and nested objects in wire order. Scan reports the same
// structural errors Deserialize would (wire-type mismatches, duplicate
// singular messages, truncation, depth), though for inputs with several
// independent defects the *first* error found can differ, because the
// interpretive path notices count-pass errors before fill-pass ones.
package deser

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/wire"
)

// Replay opcodes recorded in parse notes.
const (
	nopEnd        uint8 = iota // end of one message body
	nopScalar                  // singular scalar; val holds the converted slot bits
	nopString                  // singular string/bytes; val references the payload
	nopMessage                 // singular message; a nested body follows
	nopRepElem                 // one unpacked repeated-scalar element; val holds bits
	nopRepVals                 // n packed-varint elements, stored at arena width in the elems stream
	nopRepCopy                 // packed fixed-width run; val references the payload (bulk copy)
	nopRepString               // one repeated string/bytes element; val references the payload
	nopRepMessage              // one repeated message element; a nested body follows
	nopStringRef               // singular string/bytes carried as an SG payload segment; val references the payload
)

// action is one field's pre-resolved decode recipe: everything the scan and
// fill passes need, with no protodesc or map lookups on the hot path.
type action struct {
	kind     protodesc.Kind
	repeated bool
	scalar   bool   // repeated scalar (fl.ElemSize != 0)
	str      bool   // string or bytes kind
	zig      bool   // sint kinds: packed elements need zigzag decode
	fixed    uint8  // fixed-width wire size (0 for varint kinds)
	offset   uint32 // slot offset in the object
	size     uint32 // singular scalar slot width (1/4/8)
	elem     uint32 // repeated-scalar element width
	index    uint16 // field index (presence bit, duplicate tracking)
	repIdx   uint16 // ordinal among the message's repeated fields
	sub      *Plan  // sub-plan for message kinds
	fld      *protodesc.Field
}

// repSlot is one repeated field in fill pre-allocation (field-index) order.
type repSlot struct {
	act   *action
	elem  int
	align int
}

// Plan is the compiled decode plan for one layout: a dense
// field-number-indexed dispatch table plus the repeated-field allocation
// schedule. Plans are immutable after compilation and safe to share.
type Plan struct {
	lay    *abi.Layout
	acts   []action
	byNum  []int32         // field number -> index+1 into acts (0 = unknown)
	sparse map[int32]int32 // fallback when field numbers exceed maxDenseFieldNum
	rep    []repSlot
	numRep int
	// simple marks a flat layout — no repeated and no message fields — whose
	// messages can take the scan-bypass fast path below SmallFastPathMax:
	// one fused tag→action loop decodes straight into the object with no
	// parse notes materialized.
	simple bool
}

// SmallFastPathMax is the wire-size threshold (bytes) under which messages
// of a simple layout decode through the fused fast path. Past it the
// notes-based pipeline amortizes its bookkeeping and wins on replay.
const SmallFastPathMax = 128

// Layout returns the layout the plan was compiled from.
func (p *Plan) Layout() *abi.Layout { return p.lay }

// maxDenseFieldNum bounds the dense dispatch table so a schema with sparse
// huge field numbers cannot blow up memory; such schemas fall back to a map.
const maxDenseFieldNum = 1 << 12

// planCache maps *abi.Layout -> *Plan. Layouts are built once per ADT table
// and live for the process, so pointer identity is a stable key.
var planCache sync.Map

// PlanFor returns the compiled plan for lay, compiling and caching it (and
// every layout reachable from it) on first use. Safe for concurrent use:
// racing compilations produce independently correct plan graphs and the
// cache keeps one winner per layout. The steady-state lookup allocates
// nothing.
func PlanFor(lay *abi.Layout) *Plan {
	if p, ok := planCache.Load(lay); ok {
		return p.(*Plan)
	}
	local := make(map[*abi.Layout]*Plan)
	compilePlan(lay, local)
	for l, pl := range local {
		planCache.LoadOrStore(l, pl)
	}
	p, _ := planCache.Load(lay)
	return p.(*Plan)
}

// compilePlan compiles lay and everything reachable from it into local.
// local is seeded before recursing so self-referential schemas terminate,
// mirroring abi's computeInto.
func compilePlan(lay *abi.Layout, local map[*abi.Layout]*Plan) *Plan {
	if p, ok := local[lay]; ok {
		return p
	}
	if cached, ok := planCache.Load(lay); ok {
		p := cached.(*Plan)
		local[lay] = p
		return p
	}
	p := &Plan{lay: lay}
	local[lay] = p
	p.acts = make([]action, len(lay.Fields))
	maxNum := int32(0)
	for i := range lay.Fields {
		fl := &lay.Fields[i]
		f := fl.Desc
		if f.Number > maxNum {
			maxNum = f.Number
		}
		a := &p.acts[i]
		*a = action{
			kind:     f.Kind,
			repeated: f.Repeated,
			scalar:   fl.ElemSize != 0,
			str:      f.Kind == protodesc.KindString || f.Kind == protodesc.KindBytes,
			zig:      f.Kind == protodesc.KindSint32 || f.Kind == protodesc.KindSint64,
			fixed:    uint8(f.Kind.FixedSize()),
			offset:   fl.Offset,
			size:     uint32(fl.Size),
			elem:     uint32(fl.ElemSize),
			index:    uint16(f.Index),
			fld:      f,
		}
		if fl.Child != nil {
			a.sub = compilePlan(fl.Child, local)
		}
		if f.Repeated {
			a.repIdx = uint16(p.numRep)
			p.numRep++
			elem := elemSize(fl)
			align := elem
			if align > 8 {
				align = 8
			}
			p.rep = append(p.rep, repSlot{act: a, elem: elem, align: align})
		}
	}
	if maxNum <= maxDenseFieldNum {
		p.byNum = make([]int32, maxNum+1)
		for i := range lay.Fields {
			p.byNum[lay.Fields[i].Desc.Number] = int32(i) + 1
		}
	} else {
		p.sparse = make(map[int32]int32, len(lay.Fields))
		for i := range lay.Fields {
			p.sparse[lay.Fields[i].Desc.Number] = int32(i) + 1
		}
	}
	p.simple = true
	for i := range p.acts {
		if p.acts[i].repeated || p.acts[i].sub != nil {
			p.simple = false
			break
		}
	}
	return p
}

// Simple reports whether the plan's layout qualifies for the small-message
// fast path (no repeated fields, no nested messages).
func (p *Plan) Simple() bool { return p.simple }

// lookup resolves a field number to its action, or nil for unknown fields.
func (p *Plan) lookup(num int32) *action {
	if p.byNum != nil {
		if uint32(num) < uint32(len(p.byNum)) {
			if i := p.byNum[num]; i != 0 {
				return &p.acts[i-1]
			}
		}
		return nil
	}
	if i := p.sparse[num]; i != 0 {
		return &p.acts[i-1]
	}
	return nil
}

// noteOp is one parse-notes record. act is nil only for nopEnd.
type noteOp struct {
	act *action
	val uint64 // payload reference (off<<32|len into the wire data) or slot bits
	n   uint32 // element count (nopRepVals)
	op  uint8
}

// opSize is the bytes one replay op takes in Notes.ops.
const opSize = int(unsafe.Sizeof(noteOp{}))

// Notes is the compact parse-notes record one Scan produces: the replay
// stream (ops), packed-varint elements already in their arena byte form
// (elems), and per-message repeated-element counts (counts) in pre-order
// message-entry order. A Notes is valid only together with the wire bytes it
// was scanned from.
type Notes struct {
	ops    []noteOp
	elems  []byte
	counts []uint32
	need   int
	// maxNeed is ScanWithin's bound on the elems and ops streams.
	maxNeed int
	// opsRoom is how many ops the stream can hold before makeRoom must
	// check the bound again.
	opsRoom int
	// Scatter-gather accounting (Options.SGPayloadMin > 0): segBytes is the
	// 8-aligned byte total of the payload-segment area the message needs in
	// addition to need, segCount the number of payload-ref notes. Both stay
	// zero with SG disabled.
	segBytes int
	segCount int
	// bypass marks the scan-bypass shape: the scan validated the message and
	// computed need but recorded no ops; Fill re-runs the fused decode loop
	// instead of replaying notes. Only produced for simple plans under
	// SmallFastPathMax.
	bypass bool
}

func (no *Notes) reset() {
	no.ops = no.ops[:0]
	no.elems = no.elems[:0]
	no.counts = no.counts[:0]
	no.need = 0
	no.maxNeed = math.MaxInt
	no.opsRoom = 0
	no.segBytes = 0
	no.segCount = 0
	no.bypass = false
}

// SegBytes returns the payload-segment area size (8-aligned payload runs)
// the scatter-gather framing reserves on top of Need. Zero with SG disabled.
func (no *Notes) SegBytes() int { return no.segBytes }

// SegCount returns the number of descriptor-backed payloads the scan found.
func (no *Notes) SegCount() int { return no.segCount }

// Bypass reports whether the notes carry the scan-bypass shape (no replay
// stream; Fill runs the fused fast path).
func (no *Notes) Bypass() bool { return no.bypass }

// Need returns the exact arena bytes Fill will consume, excluding the
// GuardBytes NullRef guard prepended at base 0 — the same convention as
// MeasureExact.
func (no *Notes) Need() int { return no.need }

// notesPool recycles Notes across calls and goroutines (the DPU scans on an
// xRPC connection goroutine and fills on its poller).
var notesPool = sync.Pool{New: func() any { return new(Notes) }}

// maxPooledScratch bounds the bytes of an elems or ops buffer Release keeps
// for reuse: a buffer one huge message grew goes back to the GC instead of
// staying pinned in the pool.
const maxPooledScratch = 1 << 20

// Release returns no to the shared pool. Safe on nil; the caller must not
// use no afterwards.
func (no *Notes) Release() {
	if no == nil {
		return
	}
	if cap(no.elems) > maxPooledScratch {
		no.elems = nil
	}
	if cap(no.ops)*opSize > maxPooledScratch {
		no.ops = nil
	}
	notesPool.Put(no)
}

// packRef encodes a payload slice of the wire data as off<<32|len.
func packRef(off, ln int) uint64 { return uint64(off)<<32 | uint64(uint32(ln)) }

// payloadOf resolves a packRef against the wire data.
func payloadOf(data []byte, v uint64) []byte {
	off := int(v >> 32)
	return data[off : off+int(v&0xffffffff)]
}

// Scan runs the single structure-discovery pass over data: it validates the
// wire structure, pre-decodes varint values, and returns pooled parse notes
// whose Need reports the exact arena size. The caller must Release the
// notes (Fill does not). On error no notes are retained.
func (d *Deserializer) Scan(p *Plan, data []byte) (*Notes, error) {
	return d.ScanWithin(p, data, math.MaxInt)
}

// ScanWithin is Scan for a caller that can place no object needing more
// than maxNeed arena bytes. It fails with ErrTooLarge before its pre-decoded
// element stream would grow past maxNeed, so a small frame of one-byte
// varints cannot make the scan allocate up to 8x the frame for a request
// the caller must refuse anyway; and before its replay records would, so a
// frame of 2-byte fields cannot make it allocate 12x (see makeRoom). Need
// can still exceed maxNeed by the bytes that are not repeated scalar
// elements; the caller checks it.
func (d *Deserializer) ScanWithin(p *Plan, data []byte, maxNeed int) (*Notes, error) {
	no := notesPool.Get().(*Notes)
	no.reset()
	no.maxNeed = maxNeed
	if p.simple && len(data) <= SmallFastPathMax {
		need, err := d.scanSimple(p, data)
		if err != nil {
			no.Release()
			return nil, err
		}
		no.need = need
		no.bypass = true
		return no, nil
	}
	if err := d.scanInto(p, data, no); err != nil {
		no.Release()
		return nil, err
	}
	return no, nil
}

// scanSimple is the structure-discovery half of the fast path: it validates
// a simple-layout message (same checks, same sentinel errors as scanBody)
// and returns the exact arena need, recording nothing. Decode-side stats are
// charged here, mirroring scanBody, so the split pipeline's accounting is
// unchanged.
func (d *Deserializer) scanSimple(p *Plan, data []byte) (int, error) {
	lay := p.lay
	spill := 0
	pos := 0
	for pos < len(data) {
		var num int32
		var wt wire.Type
		var n int
		if c := data[pos]; c >= 8 && c < 0x80 {
			num, wt, n = int32(c>>3), wire.Type(c&7), 1
		} else {
			var err error
			num, wt, n, err = wire.Tag(data[pos:])
			if err != nil {
				if errors.Is(err, wire.ErrInvalidTag) {
					return 0, err
				}
				return 0, fmt.Errorf("%w: bad tag", ErrMalformed)
			}
		}
		d.Stats.VarintBytes += uint64(n)
		pos += n
		a := p.lookup(num)
		if a == nil {
			skipped, err := wire.SkipValue(data[pos:], wt)
			if err != nil {
				return 0, err
			}
			pos += skipped
			continue
		}
		d.Stats.Fields++
		if a.str {
			if wt != wire.TypeBytes {
				return 0, wireErr(lay, a.fld, wt)
			}
			payload, n := wire.Bytes(data[pos:])
			if n == 0 {
				return 0, fmt.Errorf("%w: truncated string", ErrMalformed)
			}
			d.Stats.VarintBytes += uint64(n - len(payload))
			if a.kind == protodesc.KindString && !d.validateUTF8(payload) {
				return 0, wire.ErrInvalidUTF8
			}
			if len(payload) > abi.SSOCapacity {
				spill += len(payload)
			}
			pos += n
			continue
		}
		_, n, err := d.scalar(data[pos:], a.kind, wt)
		if err != nil {
			return 0, wrapScalarErr(lay, a.fld, err)
		}
		pos += n
	}
	d.Stats.ScannedBytes += uint64(len(data))
	return int(lay.Size) + spill, nil
}

func (d *Deserializer) scanInto(p *Plan, data []byte, no *Notes) error {
	if err := d.scanBody(p, data, 0, no, 0); err != nil {
		return err
	}
	d.Stats.ScannedBytes += uint64(len(data))
	var s bumpSizer
	opi, cti := 0, 0
	sizeNotes(p, no, &opi, &cti, &s)
	no.need = s.off
	return nil
}

// scanBody scans one message body. bodyOff is the body's offset within the
// top-level wire data, so payload references in the notes are absolute.
func (d *Deserializer) scanBody(p *Plan, body []byte, bodyOff int, no *Notes, depth int) error {
	if depth >= d.opts.MaxDepth {
		return ErrDepthExceeded
	}
	lay := p.lay
	cbase := len(no.counts)
	for i := 0; i < p.numRep; i++ {
		no.counts = append(no.counts, 0)
	}
	fr := d.frame(depth)
	fr.prepare(len(lay.Fields))
	pos := 0
	for pos < len(body) {
		// One-byte tag fast path, by hand: the wire.Tag wrapper is past the
		// inliner budget, and a call per field tag is measurable here.
		var num int32
		var wt wire.Type
		var n int
		if c := body[pos]; c >= 8 && c < 0x80 {
			num, wt, n = int32(c>>3), wire.Type(c&7), 1
		} else {
			var err error
			num, wt, n, err = wire.Tag(body[pos:])
			if err != nil {
				if errors.Is(err, wire.ErrInvalidTag) {
					return err
				}
				return fmt.Errorf("%w: bad tag", ErrMalformed)
			}
		}
		d.Stats.VarintBytes += uint64(n)
		pos += n
		a := p.lookup(num)
		if a == nil {
			skipped, err := wire.SkipValue(body[pos:], wt)
			if err != nil {
				return err
			}
			pos += skipped
			continue
		}
		d.Stats.Fields++
		if len(no.ops) >= no.opsRoom {
			if err := no.makeRoom(p, body[pos-n:]); err != nil {
				return err
			}
		}
		switch {
		case a.repeated && a.scalar:
			consumed, err := d.scanRepScalar(a, body[pos:], bodyOff+pos, wt, no, cbase, fr)
			if err != nil {
				return err
			}
			pos += consumed
		case a.repeated && a.str:
			if wt != wire.TypeBytes {
				return wireErr(lay, a.fld, wt)
			}
			payload, n := wire.Bytes(body[pos:])
			if n == 0 {
				return fmt.Errorf("%w: truncated string element", ErrMalformed)
			}
			d.Stats.VarintBytes += uint64(n - len(payload))
			if a.kind == protodesc.KindString && !d.validateUTF8(payload) {
				return wire.ErrInvalidUTF8
			}
			no.counts[cbase+int(a.repIdx)]++
			no.ops = append(no.ops, noteOp{act: a, op: nopRepString,
				val: packRef(bodyOff+pos+n-len(payload), len(payload))})
			pos += n
		case a.repeated: // repeated message
			if wt != wire.TypeBytes {
				return wireErr(lay, a.fld, wt)
			}
			payload, n := wire.Bytes(body[pos:])
			if n == 0 {
				return fmt.Errorf("%w: truncated message element", ErrMalformed)
			}
			d.Stats.VarintBytes += uint64(n - len(payload))
			no.counts[cbase+int(a.repIdx)]++
			no.ops = append(no.ops, noteOp{act: a, op: nopRepMessage})
			if err := d.scanBody(a.sub, payload, bodyOff+pos+n-len(payload), no, depth+1); err != nil {
				return err
			}
			pos += n
		case a.sub != nil: // singular message
			if wt != wire.TypeBytes {
				return wireErr(lay, a.fld, wt)
			}
			payload, n := wire.Bytes(body[pos:])
			if n == 0 {
				return fmt.Errorf("%w: truncated nested message", ErrMalformed)
			}
			d.Stats.VarintBytes += uint64(n - len(payload))
			if fr.seen[a.index] {
				return fmt.Errorf("%w: %s.%s", ErrDuplicateSubfield, lay.Msg.Name, a.fld.Name)
			}
			fr.seen[a.index] = true
			no.ops = append(no.ops, noteOp{act: a, op: nopMessage})
			if err := d.scanBody(a.sub, payload, bodyOff+pos+n-len(payload), no, depth+1); err != nil {
				return err
			}
			pos += n
		case a.str: // singular string/bytes
			if wt != wire.TypeBytes {
				return wireErr(lay, a.fld, wt)
			}
			payload, n := wire.Bytes(body[pos:])
			if n == 0 {
				return fmt.Errorf("%w: truncated string", ErrMalformed)
			}
			d.Stats.VarintBytes += uint64(n - len(payload))
			if a.kind == protodesc.KindString && !d.validateUTF8(payload) {
				return wire.ErrInvalidUTF8
			}
			if d.opts.SGPayloadMin > 0 && len(payload) >= d.opts.SGPayloadMin {
				// Scatter-gather: the payload rides as a dedicated segment
				// and the fill writes an offset reference — no spill alloc
				// (sizeNotes skips this op) and no copy in fillBody.
				no.ops = append(no.ops, noteOp{act: a, op: nopStringRef,
					val: packRef(bodyOff+pos+n-len(payload), len(payload))})
				no.segBytes += alignUp8(len(payload))
				no.segCount++
			} else {
				no.ops = append(no.ops, noteOp{act: a, op: nopString,
					val: packRef(bodyOff+pos+n-len(payload), len(payload))})
			}
			pos += n
		default: // singular scalar
			bits, n, err := d.scalar(body[pos:], a.kind, wt)
			if err != nil {
				return wrapScalarErr(lay, a.fld, err)
			}
			no.ops = append(no.ops, noteOp{act: a, op: nopScalar, val: bits})
			pos += n
		}
	}
	// The interpretive fill rejects a repeated scalar field whose records
	// were all empty packed runs (final count 0 with the field present);
	// the single pass detects that at end of body.
	for _, rs := range p.rep {
		a := rs.act
		if a.scalar && fr.cursors[a.repIdx] > 0 && no.counts[cbase+int(a.repIdx)] == 0 {
			return ErrElementCountChange
		}
	}
	no.ops = append(no.ops, noteOp{op: nopEnd})
	return nil
}

// scanRepScalar scans one wire value of a repeated scalar field: a packed
// fixed-width record (noted as a payload reference for one bulk copy), a
// packed varint record (decoded into the elems stream at arena width), or a
// single unpacked element.
func (d *Deserializer) scanRepScalar(a *action, rest []byte, absPos int, wt wire.Type, no *Notes, cbase int, fr *frame) (int, error) {
	fr.cursors[a.repIdx]++ // field present: all-empty-packed detection
	ci := cbase + int(a.repIdx)
	if wt == wire.TypeBytes {
		payload, n := wire.Bytes(rest)
		if n == 0 {
			return 0, fmt.Errorf("%w: truncated packed field", ErrMalformed)
		}
		d.Stats.VarintBytes += uint64(n - len(payload))
		if fs := int(a.fixed); fs != 0 {
			if len(payload)%fs != 0 {
				return 0, fmt.Errorf("%w: packed fixed payload not a multiple of %d", ErrMalformed, fs)
			}
			d.Stats.FixedBytes += uint64(len(payload))
			cnt := uint32(len(payload) / fs)
			no.counts[ci] += cnt
			if len(payload) == 0 {
				return n, nil
			}
			// Wire and arena widths agree for every fixed kind
			// (abi.scalarSlotSize): one bulk copy record replays the run.
			no.ops = append(no.ops, noteOp{act: a, op: nopRepCopy,
				val: packRef(absPos+n-len(payload), len(payload))})
			return n, nil
		}
		// Packed varints: decoded here, a word at a time, straight into
		// arena-width elements, so the fill replays the run with one copy.
		// Every payload byte belongs to exactly one varint, so the stats
		// charge is the payload length.
		start := len(no.elems)
		// Every element takes at least one byte, and appendPackedVarints
		// reserves that worst case; past the caller's bound, count the
		// elements before growing anything.
		if start+len(payload)*int(a.elem) > no.maxNeed && start+varintCount(payload)*int(a.elem) > no.maxNeed {
			return 0, fmt.Errorf("%w: packed field needs more than %d bytes", ErrTooLarge, no.maxNeed)
		}
		elems, ok := appendPackedVarints(no.elems, payload, a.elem, a.zig)
		if !ok {
			return 0, fmt.Errorf("%w: bad packed varint", ErrMalformed)
		}
		no.elems = elems
		d.Stats.VarintBytes += uint64(len(payload))
		if cnt := uint32((len(elems) - start) / int(a.elem)); cnt > 0 {
			no.counts[ci] += cnt
			no.ops = append(no.ops, noteOp{act: a, op: nopRepVals, n: cnt})
		}
		return n, nil
	}
	// Unpacked single element.
	bits, n, err := d.scalar(rest, a.kind, wt)
	if err != nil {
		return 0, err
	}
	no.counts[ci]++
	no.ops = append(no.ops, noteOp{act: a, op: nopRepElem, val: bits})
	return n, nil
}

// makeRoom bounds the replay ops before the scan records the one of the
// field that starts rest (the rest of a body of plan p, from the field's
// tag). Every known field records a 24-byte op for as little as 2 wire
// bytes, whether or not it grows the object, so a frame the caller must
// refuse could otherwise grow the ops to 12x its size. While the rest of the
// body cannot record more ops than the bound allows (one per wire byte at
// most, counting the ends of nested bodies), nothing is counted. Past that
// the body's remaining fields are counted first: past the bound the scan
// refuses the request before growing anything; otherwise the stream grows
// once to hold them.
func (no *Notes) makeRoom(p *Plan, rest []byte) error {
	limit := no.maxNeed / opSize
	if len(no.ops)+len(rest)+1 <= limit {
		no.opsRoom = len(no.ops) + len(rest) + 1
		return nil
	}
	cnt := p.countFields(rest)
	if len(no.ops)+cnt > limit {
		return fmt.Errorf("%w: parse notes need more than %d bytes", ErrTooLarge, no.maxNeed)
	}
	no.opsRoom = len(no.ops) + cnt
	no.ops = slices.Grow(no.ops, cnt)
	return nil
}

// countFields counts the fields of p at the start of b, a run of whole
// field records. It stops at the first malformed byte, which the scan
// reports when it gets there.
func (p *Plan) countFields(b []byte) (cnt int) {
	for len(b) > 0 {
		num, wt, n, err := wire.Tag(b)
		if err != nil {
			return cnt
		}
		skipped, err := wire.SkipValue(b[n:], wt)
		if err != nil {
			return cnt
		}
		if p.lookup(num) != nil {
			cnt++
		}
		b = b[n+skipped:]
	}
	return cnt
}

// sizeNotes replays the allocation sequence of one message body through the
// bump-sizer: object, arrays, then wire-order spills and children — the only
// note records that allocate. It is the exact-sizing pass of the compiled
// path, touching a handful of records instead of re-walking the wire bytes.
func sizeNotes(p *Plan, no *Notes, opi, cti *int, s *bumpSizer) {
	s.alloc(int(p.lay.Size), abi.ObjectAlign)
	cbase := *cti
	*cti += p.numRep
	for _, rs := range p.rep {
		c := no.counts[cbase+int(rs.act.repIdx)]
		if c == 0 {
			continue
		}
		s.alloc(int(c)*rs.elem, rs.align)
	}
	for {
		op := &no.ops[*opi]
		*opi++
		switch op.op {
		case nopEnd:
			return
		case nopString, nopRepString:
			if ln := int(op.val & 0xffffffff); ln > abi.SSOCapacity {
				s.alloc(ln, 1)
			}
		case nopMessage, nopRepMessage:
			sizeNotes(op.act.sub, no, opi, cti, s)
		}
	}
}

// Fill replays parse notes into a fresh object graph allocated from bump,
// re-decoding and re-validating nothing. data must be the wire bytes no was
// scanned from. The allocation sequence is byte-identical to Deserialize's,
// including the base-0 NullRef guard.
func (d *Deserializer) Fill(p *Plan, data []byte, no *Notes, bump *arena.Bump, base uint64) (uint64, error) {
	if no.bypass {
		// Scan-bypass shape: no notes to replay, run the fused decode. The
		// scan already validated and charged decode stats, so this pass
		// charges only replay-side work.
		return d.fillSimple(p, data, bump, base, false)
	}
	if base == 0 && bump.Used() == 0 {
		// Reserve offset 0 so NullRef stays unambiguous.
		if _, _, err := bump.Alloc(GuardBytes, 8); err != nil {
			return 0, err
		}
	}
	before := bump.Used()
	opi, cti, ei := 0, 0, 0
	off, err := d.fillBody(p, data, no, &opi, &cti, &ei, bump, base, 0)
	if err != nil {
		return 0, err
	}
	d.Stats.ArenaBytes += uint64(bump.Used() - before)
	return off, nil
}

// fillSimple is the fused small-message fast path: one tag→action loop that
// decodes a simple-layout message straight into a fresh object, with no
// parse notes in between. The allocation sequence (object, then wire-order
// string spills) and every validation decision are byte-identical to the
// interpretive path. With charge set (the one-call DeserializePlanned path)
// it validates and charges decode stats; without it (Fill after a
// validating scanSimple) it only replays, charging replay-side stats.
func (d *Deserializer) fillSimple(p *Plan, data []byte, bump *arena.Bump, base uint64, charge bool) (uint64, error) {
	if base == 0 && bump.Used() == 0 {
		// Reserve offset 0 so NullRef stays unambiguous.
		if _, _, err := bump.Alloc(GuardBytes, 8); err != nil {
			return 0, err
		}
	}
	before := bump.Used()
	lay := p.lay
	obj, bumpOff, err := bump.Alloc(int(lay.Size), abi.ObjectAlign)
	if err != nil {
		return 0, err
	}
	copy(obj, lay.Default) // vptr/classID comes along, as in Sec. V-B
	objOff := base + uint64(bumpOff)
	d.Stats.Messages++
	pos := 0
	for pos < len(data) {
		var num int32
		var wt wire.Type
		var n int
		if c := data[pos]; c >= 8 && c < 0x80 {
			num, wt, n = int32(c>>3), wire.Type(c&7), 1
		} else {
			var err error
			num, wt, n, err = wire.Tag(data[pos:])
			if err != nil {
				if errors.Is(err, wire.ErrInvalidTag) {
					return 0, err
				}
				return 0, fmt.Errorf("%w: bad tag", ErrMalformed)
			}
		}
		if charge {
			d.Stats.VarintBytes += uint64(n)
		}
		pos += n
		a := p.lookup(num)
		if a == nil {
			skipped, err := wire.SkipValue(data[pos:], wt)
			if err != nil {
				return 0, err
			}
			pos += skipped
			continue
		}
		if charge {
			d.Stats.Fields++
		}
		if a.str {
			if wt != wire.TypeBytes {
				return 0, wireErr(lay, a.fld, wt)
			}
			payload, n := wire.Bytes(data[pos:])
			if n == 0 {
				return 0, fmt.Errorf("%w: truncated string", ErrMalformed)
			}
			if charge {
				d.Stats.VarintBytes += uint64(n - len(payload))
				if a.kind == protodesc.KindString && !d.validateUTF8(payload) {
					return 0, wire.ErrInvalidUTF8
				}
			}
			rec := obj[a.offset : a.offset+abi.StringRecordSize]
			if err := d.replayString(rec, objOff+uint64(a.offset), payload, bump, base); err != nil {
				return 0, err
			}
			setPresence(obj, lay, int(a.index))
			pos += n
			continue
		}
		var bits uint64
		if charge {
			bits, n, err = d.scalar(data[pos:], a.kind, wt)
		} else {
			bits, n, err = decodeScalar(data[pos:], a.kind, wt)
		}
		if err != nil {
			return 0, wrapScalarErr(lay, a.fld, err)
		}
		writeSlot(obj[a.offset:a.offset+a.size], a.size, bits)
		if !charge {
			d.Stats.ReplayedBytes += uint64(a.size)
		}
		setPresence(obj, lay, int(a.index))
		pos += n
	}
	d.Stats.ArenaBytes += uint64(bump.Used() - before)
	if charge {
		d.Stats.ScannedBytes += uint64(len(data))
	}
	return objOff, nil
}

func (d *Deserializer) fillBody(p *Plan, data []byte, no *Notes, opi, cti, ei *int, bump *arena.Bump, base uint64, depth int) (uint64, error) {
	lay := p.lay
	obj, bumpOff, err := bump.Alloc(int(lay.Size), abi.ObjectAlign)
	if err != nil {
		return 0, err
	}
	copy(obj, lay.Default) // vptr/classID comes along, as in Sec. V-B
	objOff := base + uint64(bumpOff)
	d.Stats.Messages++

	cbase := *cti
	*cti += p.numRep
	fr := d.frame(depth)
	fr.prepare(p.numRep)
	for _, rs := range p.rep {
		a := rs.act
		c := no.counts[cbase+int(a.repIdx)]
		if c == 0 {
			continue
		}
		_, arrOff, err := bump.Alloc(int(c)*rs.elem, rs.align)
		if err != nil {
			return 0, err
		}
		fr.refs[a.repIdx] = base + uint64(arrOff)
		hdr := obj[a.offset : a.offset+abi.RepeatedHdrSize]
		binary.LittleEndian.PutUint64(hdr[0:8], fr.refs[a.repIdx])
		binary.LittleEndian.PutUint64(hdr[8:16], uint64(c))
		setPresence(obj, lay, int(a.index))
	}

	for {
		op := &no.ops[*opi]
		*opi++
		a := op.act
		switch op.op {
		case nopEnd:
			return objOff, nil
		case nopScalar:
			writeSlot(obj[a.offset:a.offset+a.size], a.size, op.val)
			d.Stats.ReplayedBytes += uint64(a.size)
			setPresence(obj, lay, int(a.index))
		case nopString:
			rec := obj[a.offset : a.offset+abi.StringRecordSize]
			if err := d.replayString(rec, objOff+uint64(a.offset), payloadOf(data, op.val), bump, base); err != nil {
				return 0, err
			}
			setPresence(obj, lay, int(a.index))
		case nopStringRef:
			// Scatter-gather payload: write the offset form pointing at the
			// segment PlaceSegments put (or will put) at the cursor — zero
			// bytes copied here; the single placement memcpy is charged as
			// RefBytes in PlaceSegments.
			ln := int(op.val & 0xffffffff)
			rec := obj[a.offset : a.offset+abi.StringRecordSize]
			abi.PutStringRef(rec, d.segCur, ln)
			d.segCur += uint64(alignUp8(ln))
			setPresence(obj, lay, int(a.index))
		case nopMessage:
			childOff, err := d.fillBody(a.sub, data, no, opi, cti, ei, bump, base, depth+1)
			if err != nil {
				return 0, err
			}
			binary.LittleEndian.PutUint64(obj[a.offset:a.offset+8], childOff)
			setPresence(obj, lay, int(a.index))
		case nopRepElem:
			i := fr.cursors[a.repIdx]
			fr.cursors[a.repIdx]++
			el, err := sliceAt(bump, base, fr.refs[a.repIdx]+uint64(i)*uint64(a.elem), int(a.elem))
			if err != nil {
				return 0, err
			}
			writeSlot(el, a.elem, op.val)
			d.Stats.ReplayedBytes += uint64(a.elem)
		case nopRepVals:
			n := int(op.n) * int(a.elem)
			i := fr.cursors[a.repIdx]
			fr.cursors[a.repIdx] += op.n
			arr, err := sliceAt(bump, base, fr.refs[a.repIdx]+uint64(i)*uint64(a.elem), n)
			if err != nil {
				return 0, err
			}
			copy(arr, no.elems[*ei:*ei+n])
			*ei += n
			d.Stats.ReplayedBytes += uint64(n)
		case nopRepCopy:
			payload := payloadOf(data, op.val)
			i := fr.cursors[a.repIdx]
			fr.cursors[a.repIdx] += uint32(len(payload)) / a.elem
			arr, err := sliceAt(bump, base, fr.refs[a.repIdx]+uint64(i)*uint64(a.elem), len(payload))
			if err != nil {
				return 0, err
			}
			copy(arr, payload)
			d.Stats.CopyBytes += uint64(len(payload))
		case nopRepString:
			i := fr.cursors[a.repIdx]
			fr.cursors[a.repIdx]++
			recOff := fr.refs[a.repIdx] + uint64(i)*abi.StringRecordSize
			rec, err := sliceAt(bump, base, recOff, abi.StringRecordSize)
			if err != nil {
				return 0, err
			}
			if err := d.replayString(rec, recOff, payloadOf(data, op.val), bump, base); err != nil {
				return 0, err
			}
		case nopRepMessage:
			childOff, err := d.fillBody(a.sub, data, no, opi, cti, ei, bump, base, depth+1)
			if err != nil {
				return 0, err
			}
			i := fr.cursors[a.repIdx]
			fr.cursors[a.repIdx]++
			refSlot, err := sliceAt(bump, base, fr.refs[a.repIdx]+uint64(i)*abi.RefSize, abi.RefSize)
			if err != nil {
				return 0, err
			}
			binary.LittleEndian.PutUint64(refSlot, childOff)
		}
	}
}

// writeSlot stores converted scalar bits into a 1/4/8-byte slot.
func writeSlot(slot []byte, size uint32, bits uint64) {
	switch size {
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
}

// replayString is putString without re-validation: the scan already ran
// UTF-8 checks, so the replay only copies.
func (d *Deserializer) replayString(rec []byte, recOff uint64, payload []byte, bump *arena.Bump, base uint64) error {
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

// alignUp8 rounds n up to a multiple of 8, the payload-segment packing
// granularity (matching rpcrdma's payload alignment).
func alignUp8(n int) int { return (n + 7) &^ 7 }

// FillSG is Fill for a scatter-gather framed message: every payload-ref note
// writes the SSO offset form pointing into the payload-segment area that
// starts at region offset segBase, advancing an internal cursor in note
// order — the same order PlaceSegments packs the segments — so the two walks
// agree without communicating. The caller lays the slot out as
// [SG table][object area][segments] and passes base = the object area's
// region offset, segBase = the segment area's.
func (d *Deserializer) FillSG(p *Plan, data []byte, no *Notes, bump *arena.Bump, base, segBase uint64) (uint64, error) {
	d.segCur = segBase
	return d.Fill(p, data, no, bump, base)
}

// SegRef describes one placed payload segment: the protobuf field number it
// backs, its offset within the segment area, and its exact byte length.
type SegRef struct {
	FieldNum uint32
	Off      uint32
	Len      uint32
}

// PlaceSegments copies every payload-ref payload of no into segDst, packed
// back to back at 8-byte alignment in note order, and appends one SegRef per
// segment to refs (pass nil to allocate). This is the single memcpy an SG
// payload ever gets — it lands in the registered region and is referenced by
// offset from then on — so the bytes are charged to Stats.RefBytes, not
// CopyBytes. segDst must be at least no.SegBytes() long; alignment padding
// is zeroed so reserved-slot garbage never rides the wire.
func (d *Deserializer) PlaceSegments(data []byte, no *Notes, segDst []byte, refs []SegRef) []SegRef {
	if no.segCount == 0 {
		return refs
	}
	cur := 0
	for i := range no.ops {
		op := &no.ops[i]
		if op.op != nopStringRef {
			continue
		}
		payload := payloadOf(data, op.val)
		end := cur + len(payload)
		copy(segDst[cur:end], payload)
		for pad := end; pad < cur+alignUp8(len(payload)); pad++ {
			segDst[pad] = 0
		}
		refs = append(refs, SegRef{
			FieldNum: uint32(op.act.fld.Number),
			Off:      uint32(cur),
			Len:      uint32(len(payload)),
		})
		d.Stats.RefBytes += uint64(len(payload))
		cur += alignUp8(len(payload))
	}
	return refs
}

// DeserializePlanned is Deserialize through the compiled plan: one Scan
// (structure discovery) plus one Fill (replay), using a deserializer-owned
// notes scratch so the steady state allocates nothing.
func (d *Deserializer) DeserializePlanned(p *Plan, data []byte, bump *arena.Bump, base uint64) (uint64, error) {
	if p.simple && len(data) <= SmallFastPathMax {
		return d.fillSimple(p, data, bump, base, true)
	}
	if d.notes == nil {
		d.notes = new(Notes)
	}
	no := d.notes
	no.reset()
	if err := d.scanInto(p, data, no); err != nil {
		return 0, err
	}
	return d.Fill(p, data, no, bump, base)
}

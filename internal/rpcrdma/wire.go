package rpcrdma

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors of the wire layer.
var (
	ErrBlockCorrupt = errors.New("rpcrdma: corrupt block")
	ErrPayloadSize  = errors.New("rpcrdma: payload exceeds limits")
)

// On-wire sizes. The preamble cost is amortized over the whole block; a
// header precedes every message (Fig. 4).
const (
	PreambleSize = 16
	HeaderSize   = 16
)

// Header flag bits.
const (
	flagResponse = 1 << 0
	flagError    = 1 << 1
	// flagObject marks a payload that is a shared-region object graph
	// (rootOff meaningful) rather than opaque bytes. Responses carry it
	// when response-*serialization* is offloaded to the DPU as well
	// (Sec. III-A's "can be implemented similarly in our design").
	flagObject = 1 << 2
	// flagSG marks a payload framed scatter-gather style: the payload
	// begins with a descriptor table (SG table) naming large bytes/string
	// fields whose bulk bytes ride in dedicated payload segments at the
	// tail of the slot instead of inline in the object area. The receiver
	// resolves them by offset within the same registered region — zero
	// copies on either side (Sec. IV-A's offset-based object model).
	flagSG = 1 << 3
)

// preamble heads every block (Fig. 5). Little-endian, 8-byte aligned.
//
//	+0  msgCount  u16   messages in the block (max 2^16-1)
//	+2  ackBlocks u16   response blocks processed since the last send
//	                    (the implicit-ack counter of Sec. IV-B)
//	+4  blockLen  u32   total bytes including the preamble
//	+8  seq       u32   sender's block sequence number (debugging/tracking)
//	+12 reserved  u32
type preamble struct {
	msgCount  uint16
	ackBlocks uint16
	blockLen  uint32
	seq       uint32
}

func putPreamble(b []byte, p preamble) {
	binary.LittleEndian.PutUint16(b[0:2], p.msgCount)
	binary.LittleEndian.PutUint16(b[2:4], p.ackBlocks)
	binary.LittleEndian.PutUint32(b[4:8], p.blockLen)
	binary.LittleEndian.PutUint32(b[8:12], p.seq)
	binary.LittleEndian.PutUint32(b[12:16], 0)
}

func parsePreamble(b []byte) (preamble, error) {
	if len(b) < PreambleSize {
		return preamble{}, fmt.Errorf("%w: short preamble", ErrBlockCorrupt)
	}
	p := preamble{
		msgCount:  binary.LittleEndian.Uint16(b[0:2]),
		ackBlocks: binary.LittleEndian.Uint16(b[2:4]),
		blockLen:  binary.LittleEndian.Uint32(b[4:8]),
		seq:       binary.LittleEndian.Uint32(b[8:12]),
	}
	if p.blockLen < PreambleSize || p.blockLen > uint32(len(b)) {
		return preamble{}, fmt.Errorf("%w: block length %d outside [%d,%d]",
			ErrBlockCorrupt, p.blockLen, PreambleSize, len(b))
	}
	return p, nil
}

// header precedes each message (Fig. 5). The request ID field is only used
// on responses: request IDs are derived deterministically on both sides and
// never transmitted with requests (Sec. IV-D).
//
//	+0  payloadLen u32  payload bytes following the header (8-aligned slot)
//	+4  rootOff    u32  offset of the root object, relative to the payload
//	                    start (0 for raw payloads)
//	+8  method     u16  procedure ID (requests) / status code (responses)
//	+10 reqID      u16  request ID (responses only)
//	+12 flags      u16  bit0 response, bit1 error
//	+14 pad        u16  extra slot bytes after the aligned payload, in
//	                    8-byte units (0 on the poller-only path). Lets an
//	                    interior slot whose build used fewer bytes than it
//	                    reserved keep its fixed stride while declaring the
//	                    exact payload length.
//
// The paper stores the payload size in 16 bits; we widen it to 32 using the
// variable-cost escape hatch the paper itself proposes ("this limit can be
// removed with minor modifications"), because deserialized objects are
// larger than their wire form.
type header struct {
	payloadLen uint32
	rootOff    uint32
	method     uint16 // or status on responses
	reqID      uint16
	pad        uint32 // slot bytes to skip after alignUp(payloadLen); multiple of 8
	response   bool
	errFlag    bool
	object     bool
	sg         bool
}

func putHeader(b []byte, h header) {
	binary.LittleEndian.PutUint32(b[0:4], h.payloadLen)
	binary.LittleEndian.PutUint32(b[4:8], h.rootOff)
	binary.LittleEndian.PutUint16(b[8:10], h.method)
	binary.LittleEndian.PutUint16(b[10:12], h.reqID)
	var flags uint16
	if h.response {
		flags |= flagResponse
	}
	if h.errFlag {
		flags |= flagError
	}
	if h.object {
		flags |= flagObject
	}
	if h.sg {
		flags |= flagSG
	}
	binary.LittleEndian.PutUint16(b[12:14], flags)
	binary.LittleEndian.PutUint16(b[14:16], uint16(h.pad/8))
}

func parseHeader(b []byte) (header, error) {
	if len(b) < HeaderSize {
		return header{}, fmt.Errorf("%w: short header", ErrBlockCorrupt)
	}
	flags := binary.LittleEndian.Uint16(b[12:14])
	return header{
		payloadLen: binary.LittleEndian.Uint32(b[0:4]),
		rootOff:    binary.LittleEndian.Uint32(b[4:8]),
		method:     binary.LittleEndian.Uint16(b[8:10]),
		reqID:      binary.LittleEndian.Uint16(b[10:12]),
		pad:        uint32(binary.LittleEndian.Uint16(b[14:16])) * 8,
		response:   flags&flagResponse != 0,
		errFlag:    flags&flagError != 0,
		object:     flags&flagObject != 0,
		sg:         flags&flagSG != 0,
	}, nil
}

// Scatter-gather descriptor table. A payload with flagSG set is laid out as
//
//	[SG table][object area][payload segments...]
//
// where the SG table is an 8-byte header (descriptor count, reserved) plus
// SGDescSize bytes per descriptor. Object references computed against the
// payload base resolve into the segments because the whole slot shares one
// registered region; the table itself exists for validation and telemetry
// (the receiver never rewrites refs).
const (
	// SGTableHdrSize is the fixed table header: u32 descriptor count +
	// u32 reserved, keeping the object area 8-aligned.
	SGTableHdrSize = 8
	// SGDescSize is the wire size of one descriptor.
	SGDescSize = 16
	// SGMaxDescs bounds the descriptor count a receiver will accept; it
	// exists only to reject forged tables cheaply (a real message has at
	// most one descriptor per top-level large field).
	SGMaxDescs = 4096
)

// SGDesc names one descriptor-backed payload: the protobuf field number it
// fills, its offset from the payload start, and its byte length. Offsets are
// 8-aligned; segments are packed back to back with 8-byte padding.
//
//	+0  field u32   protobuf field number
//	+4  off   u32   segment offset from the payload start
//	+8  len   u32   payload bytes (the segment occupies alignUp(len))
//	+12 rsvd  u32
type SGDesc struct {
	Field uint32
	Off   uint32
	Len   uint32
}

// SGTableSize returns the payload bytes an n-descriptor table occupies.
func SGTableSize(n int) int { return SGTableHdrSize + n*SGDescSize }

// PutSGTable writes the descriptor table at the start of dst.
func PutSGTable(dst []byte, descs []SGDesc) {
	binary.LittleEndian.PutUint32(dst[0:4], uint32(len(descs)))
	binary.LittleEndian.PutUint32(dst[4:8], 0)
	for i, d := range descs {
		p := dst[SGTableHdrSize+i*SGDescSize:]
		binary.LittleEndian.PutUint32(p[0:4], d.Field)
		binary.LittleEndian.PutUint32(p[4:8], d.Off)
		binary.LittleEndian.PutUint32(p[8:12], d.Len)
		binary.LittleEndian.PutUint32(p[12:16], 0)
	}
}

// ParseSGTable reads the descriptor table at the start of payload. It does
// no bounds checking beyond the table itself; use ValidateSGTable on
// untrusted input first.
func ParseSGTable(payload []byte) []SGDesc {
	n := int(binary.LittleEndian.Uint32(payload[0:4]))
	descs := make([]SGDesc, n)
	for i := range descs {
		p := payload[SGTableHdrSize+i*SGDescSize:]
		descs[i] = SGDesc{
			Field: binary.LittleEndian.Uint32(p[0:4]),
			Off:   binary.LittleEndian.Uint32(p[4:8]),
			Len:   binary.LittleEndian.Uint32(p[8:12]),
		}
	}
	return descs
}

// ValidateSGTable checks a flagSG payload's descriptor table: the table must
// fit, and every descriptor must name an 8-aligned segment that lies fully
// inside the payload and after the table. A payload that fails is corrupt —
// a torn descriptor must never reach Fill.
func ValidateSGTable(payload []byte) error {
	if len(payload) < SGTableHdrSize {
		return fmt.Errorf("%w: SG payload %d bytes, no table header", ErrBlockCorrupt, len(payload))
	}
	n := int(binary.LittleEndian.Uint32(payload[0:4]))
	if n > SGMaxDescs {
		return fmt.Errorf("%w: SG descriptor count %d exceeds %d", ErrBlockCorrupt, n, SGMaxDescs)
	}
	tbl := SGTableSize(n)
	if tbl > len(payload) {
		return fmt.Errorf("%w: SG table %d bytes exceeds payload %d", ErrBlockCorrupt, tbl, len(payload))
	}
	for i := 0; i < n; i++ {
		p := payload[SGTableHdrSize+i*SGDescSize:]
		off := binary.LittleEndian.Uint32(p[4:8])
		ln := binary.LittleEndian.Uint32(p[8:12])
		if off%8 != 0 {
			return fmt.Errorf("%w: SG segment %d misaligned offset %d", ErrBlockCorrupt, i, off)
		}
		if int(off) < tbl || uint64(off)+uint64(ln) > uint64(len(payload)) {
			return fmt.Errorf("%w: SG segment %d [%d,%d) outside payload [%d,%d)",
				ErrBlockCorrupt, i, off, uint64(off)+uint64(ln), tbl, len(payload))
		}
	}
	return nil
}

// alignUp rounds n up to a multiple of 8 (payload alignment, Sec. IV-A).
func alignUp(n int) int { return (n + 7) &^ 7 }

// slotSize returns the block bytes one message of payloadSize occupies.
func slotSize(payloadSize int) int { return HeaderSize + alignUp(payloadSize) }

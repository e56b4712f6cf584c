package rpcrdma

import (
	"encoding/binary"
	"errors"
	"testing"

	"dpurpc/internal/fabric"
	"dpurpc/internal/rdma"
)

// handleRequestBlock and handleResponseBlock feed one inbound block to a
// side's receiver, as a receive completion does; the corruption tests inject
// through them.
func (s *ServerConn) handleRequestBlock(imm, byteLen uint32) error {
	return s.complete(rdma.CQE{ImmData: imm, ByteLen: byteLen})
}

func (c *ClientConn) handleResponseBlock(imm, byteLen uint32) error {
	return c.complete(rdma.CQE{ImmData: imm, ByteLen: byteLen})
}

// walkProbe is an inbound side that checks every message the walk yields.
type walkProbe struct {
	t      *testing.T
	rbuf   []byte
	lo, hi uint64 // region offsets of the block
	msgs   int
}

func (p *walkProbe) admit(*inBlock, int) error { return nil }

func (p *walkProbe) message(i int, h header, payload []byte, regionOff uint64) error {
	p.t.Helper()
	if i != p.msgs {
		p.t.Fatalf("message %d yielded as %d", p.msgs, i)
	}
	p.msgs++
	if regionOff < p.lo+PreambleSize+HeaderSize || regionOff+uint64(len(payload)) > p.hi {
		p.t.Fatalf("message %d at [%d,%d) outside block [%d,%d)",
			i, regionOff, regionOff+uint64(len(payload)), p.lo, p.hi)
	}
	if len(payload) > 0 && &payload[0] != &p.rbuf[regionOff] {
		p.t.Fatalf("message %d payload does not alias the receive buffer at %d", i, regionOff)
	}
	if h.sg {
		if err := ValidateSGTable(payload); err != nil {
			p.t.Fatalf("message %d: SG table yielded unvalidated: %v", i, err)
		}
	}
	return nil
}

func (p *walkProbe) delivered() {}

// FuzzBlockWalk feeds arbitrary bytes to the one block walker as an inbound
// block at bucket 1, in either direction. The walk must either fail as
// corruption or a sequence gap, or yield every declared message inside the
// block. With gap false the receiver expects the block's own sequence
// number, so the walk gets past the sequence check.
func FuzzBlockWalk(f *testing.F) {
	empty := make([]byte, PreambleSize)
	putPreamble(empty, preamble{blockLen: PreambleSize})
	f.Add(empty, false, false)
	f.Fuzz(func(t *testing.T, raw []byte, response, gap bool) {
		mr := rdma.NewDevice("fuzz", fabric.NewLink(), fabric.DPUToHost).AllocPD().
			RegisterMR(make([]byte, BlockAlign+1<<16))
		buf := mr.Bytes()
		copy(buf[BlockAlign:], raw)
		probe := &walkProbe{t: t, rbuf: buf, lo: BlockAlign, hi: BlockAlign}
		p, perr := parsePreamble(raw)
		if perr == nil {
			probe.hi += uint64(p.blockLen)
		}
		rx := &receiver{rbuf: mr, tx: &sender{response: !response}, in: probe}
		if len(raw) >= 12 && !gap {
			rx.expectSeq = binary.LittleEndian.Uint32(raw[8:12])
		}
		err := rx.walk(rdma.CQE{ImmData: 1, ByteLen: uint32(len(raw))})
		if err != nil {
			if !errors.Is(err, ErrBlockCorrupt) && !errors.Is(err, ErrSeqGap) {
				t.Fatalf("walk failed with an untyped error: %v", err)
			}
			return
		}
		if probe.msgs != int(p.msgCount) {
			t.Fatalf("walk yielded %d of %d messages", probe.msgs, p.msgCount)
		}
	})
}

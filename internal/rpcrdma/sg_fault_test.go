package rpcrdma

import (
	"errors"
	"testing"
	"time"

	"dpurpc/internal/fault"
)

// Scatter-gather fault coverage: forged descriptor tables must be rejected
// as block corruption before any descriptor reaches a handler (or Fill), and
// injected transport faults on multi-segment SG messages must resolve
// atomically — transparent whole-block retry or a typed failure, never a
// torn table.

// sgRaw builds a forged single-message block whose payload claims SG
// framing.
func sgRaw(payload []byte, response bool) []byte {
	raw := make([]byte, PreambleSize+HeaderSize+len(payload))
	putPreamble(raw, preamble{msgCount: 1, blockLen: uint32(len(raw))})
	putHeader(raw[PreambleSize:], header{payloadLen: uint32(len(payload)), sg: true, response: response})
	copy(raw[PreambleSize+HeaderSize:], payload)
	return raw
}

func TestServerRejectsSGTableHeaderShort(t *testing.T) {
	r := corruptRig(t)
	// Four payload bytes cannot hold the 8-byte table header.
	if err := writeRawToServer(r, 1, sgRaw(make([]byte, 4), false)); !errors.Is(err, ErrBlockCorrupt) {
		t.Errorf("err = %v", err)
	}
}

func TestServerRejectsSGDescCountForged(t *testing.T) {
	r := corruptRig(t)
	payload := make([]byte, SGTableHdrSize)
	PutSGTable(payload, nil)
	payload[0] = 0xff // count = huge, way past SGMaxDescs
	payload[1] = 0xff
	payload[2] = 0xff
	payload[3] = 0xff
	if err := writeRawToServer(r, 1, sgRaw(payload, false)); !errors.Is(err, ErrBlockCorrupt) {
		t.Errorf("err = %v", err)
	}
}

func TestServerRejectsSGTableBeyondPayload(t *testing.T) {
	r := corruptRig(t)
	// Count 2 needs SGTableSize(2) bytes; only the header is present.
	payload := make([]byte, SGTableHdrSize)
	payload[0] = 2
	if err := writeRawToServer(r, 1, sgRaw(payload, false)); !errors.Is(err, ErrBlockCorrupt) {
		t.Errorf("err = %v", err)
	}
}

func TestServerRejectsSGMisalignedSegment(t *testing.T) {
	r := corruptRig(t)
	payload := make([]byte, SGTableSize(1)+16)
	PutSGTable(payload, []SGDesc{{Field: 1, Off: uint32(SGTableSize(1)) + 4, Len: 8}})
	if err := writeRawToServer(r, 1, sgRaw(payload, false)); !errors.Is(err, ErrBlockCorrupt) {
		t.Errorf("err = %v", err)
	}
}

func TestServerRejectsSGSegmentBeyondPayload(t *testing.T) {
	r := corruptRig(t)
	payload := make([]byte, SGTableSize(1)+16)
	PutSGTable(payload, []SGDesc{{Field: 1, Off: uint32(SGTableSize(1)), Len: 4096}})
	if err := writeRawToServer(r, 1, sgRaw(payload, false)); !errors.Is(err, ErrBlockCorrupt) {
		t.Errorf("err = %v", err)
	}
}

func TestServerRejectsSGSegmentOverlappingTable(t *testing.T) {
	r := corruptRig(t)
	payload := make([]byte, SGTableSize(1)+16)
	PutSGTable(payload, []SGDesc{{Field: 1, Off: 0, Len: 8}})
	if err := writeRawToServer(r, 1, sgRaw(payload, false)); !errors.Is(err, ErrBlockCorrupt) {
		t.Errorf("err = %v", err)
	}
}

func TestClientRejectsSGResponseCorruptTable(t *testing.T) {
	// A live request ID so the forged SG response reaches table validation
	// rather than the idle-ID check.
	r := corruptRig(t)
	r.client.Enqueue(CallSpec{Size: 8, OnResponse: func(Response) {}})
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, SGTableHdrSize)
	payload[0] = 2 // table claims 2 descriptors, none present
	if err := writeRawToClient(r, 1, sgRaw(payload, true)); !errors.Is(err, ErrBlockCorrupt) {
		t.Errorf("err = %v", err)
	}
}

// sgCallSpec builds a CallSpec carrying segs descriptor-backed segments of
// segLen bytes each, segment i filled with byte 'A'+i, laid out
// [table][objArea][segments] exactly as the datapath frames an SG slot.
func sgCallSpec(segs, segLen, objArea int, onResp func(Response)) CallSpec {
	tbl := SGTableSize(segs)
	size := tbl + objArea + segs*alignUp(segLen)
	return CallSpec{
		Size: size,
		SG:   true, SGSegs: segs, SGBytes: segs * segLen,
		Build: func(dst []byte, regionOff uint64) (uint32, int, error) {
			clear(dst) // the object area and the segment pads
			descs := make([]SGDesc, segs)
			for s := 0; s < segs; s++ {
				off := tbl + objArea + s*alignUp(segLen)
				descs[s] = SGDesc{Field: uint32(s + 1), Off: uint32(off), Len: uint32(segLen)}
				for j := 0; j < segLen; j++ {
					dst[off+j] = byte('A' + s)
				}
			}
			PutSGTable(dst, descs)
			return 0, size, nil
		},
		OnResponse: onResp,
	}
}

// TestSGSendFaultRetryTransparent: errored CQEs on multi-segment SG request
// blocks are recovered by whole-block retry-in-place — every message still
// arrives with an intact descriptor table and untorn segments, because the
// table and its segments share one block and one post.
func TestSGSendFaultRetryTransparent(t *testing.T) {
	ccfg, scfg := faultCfgs()
	ccfg.Faults = &fault.Plan{ErrorRate: 0.3, Seed: 13}
	const segs, segLen, objArea = 2, 96, 16
	checked := 0
	h := func(req Request) ResponseSpec {
		if !req.SG {
			t.Error("SG flag lost in transit")
		}
		if err := ValidateSGTable(req.Payload); err != nil {
			t.Errorf("torn SG table reached the handler: %v", err)
		}
		for i, d := range ParseSGTable(req.Payload) {
			seg := req.Payload[d.Off : d.Off+d.Len]
			for _, b := range seg {
				if b != byte('A'+i) {
					t.Errorf("segment %d torn: byte %#x", i, b)
					break
				}
			}
		}
		checked++
		return ResponseSpec{Size: 8}
	}
	r := newRig(t, ccfg, scfg, h)
	const n = 200
	got := 0
	for i := 0; i < n; i++ {
		spec := sgCallSpec(segs, segLen, objArea, func(resp Response) {
			if resp.LocalErr == nil && !resp.Err {
				got++
			}
		})
		if err := r.client.Enqueue(spec); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 { // drain acks so the send arena never saturates
			if _, err := r.client.Progress(); err != nil {
				t.Fatalf("client: %v", err)
			}
			if _, err := r.poller.Progress(); err != nil {
				t.Fatalf("server: %v", err)
			}
		}
	}
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	r.pump(t)
	if got != n || checked != n {
		t.Fatalf("completed %d, handler saw %d, want %d", got, checked, n)
	}
	if r.client.Counters.SendFaultRetries == 0 {
		t.Fatal("no send-fault retries recorded at a 30% fault rate")
	}
	if r.client.Counters.SGMessagesSent != n {
		t.Fatalf("SGMessagesSent = %d, want %d", r.client.Counters.SGMessagesSent, n)
	}
	if r.client.Broken() != nil || r.server.Broken() != nil {
		t.Fatalf("connection broke: client=%v server=%v", r.client.Broken(), r.server.Broken())
	}
}

// TestSGDropFailsAtomically: a dropped multi-segment SG block resolves as
// one typed timeout — the handler never runs, so no partial descriptor
// state is ever observable server-side.
func TestSGDropFailsAtomically(t *testing.T) {
	ccfg, scfg := faultCfgs()
	ccfg.Faults = &fault.Plan{DropRate: 1, Seed: 3}
	ccfg.RequestTimeout = 20 * time.Millisecond
	seen := 0
	h := func(req Request) ResponseSpec {
		seen++
		return ResponseSpec{Size: 8}
	}
	r := newRig(t, ccfg, scfg, h)
	var got *Response
	spec := sgCallSpec(2, 96, 16, func(resp Response) { got = &resp })
	if err := r.client.Enqueue(spec); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got == nil && time.Now().Before(deadline) {
		if _, err := r.client.Progress(); err != nil {
			t.Fatalf("client: %v", err)
		}
		if _, err := r.poller.Progress(); err != nil {
			t.Fatalf("server: %v", err)
		}
	}
	if got == nil {
		t.Fatal("dropped SG request never resolved")
	}
	if !errors.Is(got.LocalErr, ErrRequestTimeout) {
		t.Fatalf("LocalErr = %v, want ErrRequestTimeout", got.LocalErr)
	}
	if seen != 0 {
		t.Fatalf("handler ran %d times on a dropped block", seen)
	}
	if r.client.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after reap", r.client.Outstanding())
	}
}

package rpcrdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc/internal/arena"
)

// duplexCfg returns the small test config with the host-side duplex
// pipeline enabled at the given width.
func duplexCfg(workers int) (Config, Config) {
	ccfg, scfg := smallCfg()
	scfg.HostWorkers = workers
	return ccfg, scfg
}

func TestDuplexEcho(t *testing.T) {
	// The full reserve → parallel build → commit response pipeline under a
	// batched load: every echo must come back intact, matched by the
	// request ID in its slot whatever order the poller reserved it in.
	ccfg, scfg := duplexCfg(4)
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 500, 64)
	c := r.server.Counters
	if c.DuplexHandled != 500 || c.DuplexBuilt != 500 {
		t.Errorf("duplex counters: handled=%d built=%d", c.DuplexHandled, c.DuplexBuilt)
	}
	if c.DuplexTombstones != 0 {
		t.Errorf("unexpected tombstones: %d", c.DuplexTombstones)
	}
}

func TestDuplexLargePayloads(t *testing.T) {
	// Payloads near the block size force per-response blocks, overflow
	// seals from ReserveResponse, and reservation retries on arena
	// backpressure.
	ccfg, scfg := duplexCfg(3)
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 60, 3000)
	if r.server.Counters.DuplexBuilt != 60 {
		t.Errorf("built %d/60", r.server.Counters.DuplexBuilt)
	}
}

func TestDuplexSingleWorkerMatchesSerial(t *testing.T) {
	// HostWorkers == 1 keeps the serial response path (no pool is built).
	ccfg, scfg := duplexCfg(1)
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 100, 64)
	if c := r.server.Counters; c.DuplexHandled != 0 || c.DuplexBuilt != 0 {
		t.Errorf("HostWorkers=1 must not run the duplex pool: %+v", c)
	}
}

func TestDuplexStatusOnlyResponses(t *testing.T) {
	// Handlers with no Build (status-only responses) skip the build stage
	// and commit straight from the reserve replay.
	ccfg, scfg := duplexCfg(4)
	r := newRig(t, ccfg, scfg, func(req Request) ResponseSpec {
		return ResponseSpec{Status: req.Method}
	})
	got := 0
	for i := 0; i < 200; i++ {
		i := i
		err := r.client.Enqueue(CallSpec{
			Method: uint16(i % 7),
			Size:   16,
			OnResponse: func(resp Response) {
				got++
				if resp.Status != uint16(i%7) || resp.Err || len(resp.Payload) != 0 {
					t.Errorf("request %d: status=%d err=%v len=%d", i, resp.Status, resp.Err, len(resp.Payload))
				}
			},
		})
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	r.pump(t)
	if got != 200 {
		t.Fatalf("got %d/200", got)
	}
	if r.server.Counters.DuplexBuilt != 0 {
		t.Error("status-only responses must not enter the build stage")
	}
}

func TestDuplexBuildFailureTombstone(t *testing.T) {
	// A failing response build must not kill the connection or leak the
	// reserved slot: the slot is committed as an error tombstone
	// (Internal status) and every other request still completes.
	ccfg, scfg := duplexCfg(4)
	r := newRig(t, ccfg, scfg, func(req Request) ResponseSpec {
		payload := append([]byte(nil), req.Payload...)
		return ResponseSpec{
			Status: req.Method,
			Size:   len(payload),
			Build: func(dst []byte, regionOff uint64) (uint32, int, error) {
				if req.Method == 5 {
					return 0, 0, errors.New("deliberate build failure")
				}
				copy(dst, payload)
				return req.Root, len(payload), nil
			},
		}
	})
	const n = 350
	got, tombstones := 0, 0
	for i := 0; i < n; i++ {
		i := i
		enqueue := func() error {
			return r.client.Enqueue(CallSpec{
				Method: uint16(i % 7),
				Size:   64,
				Build: func(dst []byte, regionOff uint64) (uint32, int, error) {
					binary.LittleEndian.PutUint64(dst, uint64(i))
					return uint32(i), 64, nil
				},
				OnResponse: func(resp Response) {
					got++
					if i%7 == 5 {
						tombstones++
						if !resp.Err || resp.Status != duplexBuildFailed || len(resp.Payload) != 0 {
							t.Errorf("request %d: want tombstone, got status=%d err=%v len=%d",
								i, resp.Status, resp.Err, len(resp.Payload))
						}
						return
					}
					if resp.Err || resp.Status != uint16(i%7) {
						t.Errorf("request %d: status=%d err=%v", i, resp.Status, resp.Err)
					}
					if v := binary.LittleEndian.Uint64(resp.Payload); v != uint64(i) {
						t.Errorf("request %d: payload %d", i, v)
					}
				},
			})
		}
		err := enqueue()
		for retries := 0; errors.Is(err, arena.ErrOutOfMemory) && retries < 1000; retries++ {
			if _, perr := r.client.Progress(); perr != nil {
				t.Fatal(perr)
			}
			if _, perr := r.poller.Progress(); perr != nil {
				t.Fatal(perr)
			}
			err = enqueue()
		}
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	r.pump(t)
	if got != n {
		t.Fatalf("got %d/%d", got, n)
	}
	want := n / 7 // methods cycle 0..6; method 5 fails
	if tombstones != want {
		t.Fatalf("tombstones %d, want %d", tombstones, want)
	}
	if r.server.Counters.DuplexTombstones != uint64(want) {
		t.Errorf("server counted %d tombstones", r.server.Counters.DuplexTombstones)
	}
	// The connection survived: one more clean round trip (4 calls keep the
	// cycling methods below the failing method 5).
	r.call(t, 4, 32)
}

func TestDuplexSettersOrder(t *testing.T) {
	// Commits land in completion order while sends stay blocked until a
	// block has no pending reservations; responses must replay request
	// identity regardless. Mixed sizes maximize out-of-order completion.
	ccfg, scfg := duplexCfg(4)
	r := newRig(t, ccfg, scfg, nil)
	sizes := []int{16, 700, 64, 1800, 8, 256}
	got := 0
	for i := 0; i < 300; i++ {
		i := i
		size := sizes[i%len(sizes)]
		enqueue := func() error {
			return r.client.Enqueue(CallSpec{
				Method: uint16(i % 7),
				Size:   size,
				Build: func(dst []byte, regionOff uint64) (uint32, int, error) {
					if size >= 8 {
						binary.LittleEndian.PutUint64(dst, uint64(i))
					}
					return uint32(i), size, nil
				},
				OnResponse: func(resp Response) {
					got++
					if resp.Root != uint32(i) || len(resp.Payload) != size {
						t.Errorf("request %d: root=%d len=%d want len=%d",
							i, resp.Root, len(resp.Payload), size)
					}
					if size >= 8 {
						if v := binary.LittleEndian.Uint64(resp.Payload); v != uint64(i) {
							t.Errorf("request %d: payload %d", i, v)
						}
					}
				},
			})
		}
		err := enqueue()
		for retries := 0; errors.Is(err, arena.ErrOutOfMemory) && retries < 1000; retries++ {
			if _, perr := r.client.Progress(); perr != nil {
				t.Fatal(perr)
			}
			if _, perr := r.poller.Progress(); perr != nil {
				t.Fatal(perr)
			}
			err = enqueue()
		}
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	r.pump(t)
	if got != 300 {
		t.Fatalf("got %d/300", got)
	}
}

func TestReserveCommitSerialEquivalence(t *testing.T) {
	// The serial appendResponse wrapper (reserve → build → commit) must
	// produce the same wire contract as before: this pins the response for
	// a given request sequence across the serial and duplex paths.
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ccfg, scfg := duplexCfg(workers)
			r := newRig(t, ccfg, scfg, nil)
			r.call(t, 200, 96)
			if r.client.Counters.ResponsesReceived != 200 {
				t.Errorf("responses %d", r.client.Counters.ResponsesReceived)
			}
		})
	}
}

// The tests below run the duplex pool as Sec. III-D's background execution:
// handlers that sleep or block on worker goroutines, out-of-order
// completion, and payload views that must outlive sibling responses. They
// use 16 credits per side, so the credit protocol's liveness rules are
// exercised at a window where ack-only blocks and tiny response blocks
// compete for the last credits.

// slowHandlerCfg returns the 16-credit configuration with the duplex pool
// at the given width.
func slowHandlerCfg(workers int) (Config, Config) {
	ccfg := Config{BlockSize: 4096, Credits: 16, SBufSize: 1 << 19, CQDepth: 64,
		BusyPoll: true}
	scfg := ccfg
	scfg.HostWorkers = workers
	return ccfg, scfg
}

// pumpUntil drives both loops until cond or timeout.
func pumpUntil(t *testing.T, r *testRig, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() && time.Now().Before(deadline) {
		if _, err := r.client.Progress(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.poller.Progress(); err != nil {
			t.Fatal(err)
		}
	}
	if !cond() {
		t.Fatalf("stalled: client credits=%d acks pending=%d unacked=%d; server credits=%d ackReady=%d sendQ=%d",
			r.client.Credits(), r.client.ackBlocks, len(r.client.unacked),
			r.server.Credits(), r.server.ackReady, len(r.server.sendQ))
	}
}

func TestBackgroundExecutionBasic(t *testing.T) {
	ccfg, scfg := slowHandlerCfg(4)
	var handled atomic.Int32
	h := func(req Request) ResponseSpec {
		handled.Add(1)
		payload := append([]byte(nil), req.Payload...)
		return ResponseSpec{Size: len(payload), Build: func(dst []byte, _ uint64) (uint32, int, error) {
			copy(dst, payload)
			return 0, len(payload), nil
		}}
	}
	r := newRig(t, ccfg, scfg, h)
	defer r.poller.Close()
	const n = 200
	got := 0
	for i := 0; i < n; i++ {
		i := i
		err := r.client.Enqueue(CallSpec{
			Size: 16,
			Build: func(dst []byte, _ uint64) (uint32, int, error) {
				binary.LittleEndian.PutUint64(dst, uint64(i))
				return 0, 16, nil
			},
			OnResponse: func(resp Response) {
				got++
				if binary.LittleEndian.Uint64(resp.Payload) != uint64(i) {
					t.Errorf("response %d corrupted", i)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pumpUntil(t, r, func() bool { return got == n })
	if handled.Load() != n {
		t.Errorf("handled %d", handled.Load())
	}
	if r.poller.ResponsePending() != 0 {
		t.Error("pending duplex tasks after quiescence")
	}
}

func TestBackgroundOutOfOrderCompletion(t *testing.T) {
	// Handlers sleep random amounts: responses complete out of order and
	// must still be matched and acknowledged correctly.
	ccfg, scfg := slowHandlerCfg(8)
	h := func(req Request) ResponseSpec {
		// Derive a deterministic per-request delay from the payload.
		d := time.Duration(binary.LittleEndian.Uint64(req.Payload)%7) * time.Millisecond
		time.Sleep(d)
		v := binary.LittleEndian.Uint64(req.Payload)
		return ResponseSpec{Size: 8, Build: func(dst []byte, _ uint64) (uint32, int, error) {
			binary.LittleEndian.PutUint64(dst, v*2)
			return 0, 8, nil
		}}
	}
	r := newRig(t, ccfg, scfg, h)
	defer r.poller.Close()
	const n = 60
	got := 0
	var order []uint64
	for i := 0; i < n; i++ {
		i := i
		r.client.Enqueue(CallSpec{
			Size: 8,
			Build: func(dst []byte, _ uint64) (uint32, int, error) {
				binary.LittleEndian.PutUint64(dst, uint64(i))
				return 0, 8, nil
			},
			OnResponse: func(resp Response) {
				got++
				v := binary.LittleEndian.Uint64(resp.Payload)
				if v != uint64(i)*2 {
					t.Errorf("request %d: got %d", i, v)
				}
				order = append(order, uint64(i))
			},
		})
	}
	pumpUntil(t, r, func() bool { return got == n })
	// With 8 workers and variable delays the completion order is almost
	// surely not fully sequential; tolerate the unlikely case by checking
	// only that all completed.
	if len(order) != n {
		t.Fatalf("completions = %d", len(order))
	}
	// All block memory eventually reclaimed.
	if r.client.alloc.Live() != 1 {
		t.Errorf("client leaked %d blocks", r.client.alloc.Live()-1)
	}
}

func TestBackgroundPayloadStableDuringHandler(t *testing.T) {
	// The conservative-ack contract: a handler on the pool can keep reading
	// its request payload for its whole run, even after other requests in
	// the same block were answered.
	ccfg, scfg := slowHandlerCfg(4)
	var mismatches atomic.Int32
	h := func(req Request) ResponseSpec {
		before := append([]byte(nil), req.Payload...)
		time.Sleep(2 * time.Millisecond)
		if !bytes.Equal(before, req.Payload) {
			mismatches.Add(1)
		}
		return ResponseSpec{Size: 0}
	}
	r := newRig(t, ccfg, scfg, h)
	defer r.poller.Close()
	got := 0
	for round := 0; round < 4; round++ {
		for i := 0; i < 50; i++ {
			r.client.Enqueue(CallSpec{
				Size: 64,
				Build: func(dst []byte, _ uint64) (uint32, int, error) {
					for j := range dst {
						dst[j] = byte(i + j)
					}
					return 0, 64, nil
				},
				OnResponse: func(Response) { got++ },
			})
		}
	}
	pumpUntil(t, r, func() bool { return got == 200 })
	if mismatches.Load() != 0 {
		t.Errorf("%d payloads mutated under a running handler", mismatches.Load())
	}
}

func TestPollerCloseIdempotent(t *testing.T) {
	ccfg, scfg := slowHandlerCfg(2)
	r := newRig(t, ccfg, scfg, func(req Request) ResponseSpec { return ResponseSpec{} })
	r.poller.Close()
	r.poller.Close() // must not panic or deadlock
}

func TestBackgroundLongRunningDoesNotBlockOthers(t *testing.T) {
	// One slow RPC must not prevent fast ones from completing — the very
	// motivation for background execution (Sec. III-D). Response slots are
	// reserved in handler-completion order, so the slow request's slot does
	// not hold back the later ones.
	ccfg, scfg := slowHandlerCfg(4)
	release := make(chan struct{})
	h := func(req Request) ResponseSpec {
		if req.Method == 99 {
			<-release
		}
		return ResponseSpec{Size: 0}
	}
	r := newRig(t, ccfg, scfg, h)
	defer r.poller.Close()

	slowDone, fastDone := false, 0
	r.client.Enqueue(CallSpec{Method: 99, Size: 8, OnResponse: func(Response) { slowDone = true }})
	if err := r.client.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r.client.Enqueue(CallSpec{Method: 1, Size: 8, OnResponse: func(Response) { fastDone++ }})
	}
	pumpUntil(t, r, func() bool { return fastDone == 20 })
	if slowDone {
		t.Fatal("slow RPC completed before release")
	}
	close(release)
	pumpUntil(t, r, func() bool { return slowDone })
}

func TestBackgroundHeavyLoad(t *testing.T) {
	ccfg, scfg := slowHandlerCfg(8)
	h := func(req Request) ResponseSpec {
		payload := append([]byte(nil), req.Payload...)
		return ResponseSpec{Size: len(payload), Build: func(dst []byte, _ uint64) (uint32, int, error) {
			copy(dst, payload)
			return 0, len(payload), nil
		}}
	}
	r := newRig(t, ccfg, scfg, h)
	defer r.poller.Close()
	const total = 3000
	sent, got := 0, 0
	deadline := time.Now().Add(20 * time.Second)
	for got < total && time.Now().Before(deadline) {
		for sent < total && sent-got < 256 {
			i := sent
			err := r.client.Enqueue(CallSpec{
				Size: 32,
				Build: func(dst []byte, _ uint64) (uint32, int, error) {
					binary.LittleEndian.PutUint64(dst, uint64(i))
					return 0, 32, nil
				},
				OnResponse: func(resp Response) {
					if binary.LittleEndian.Uint64(resp.Payload) != uint64(i) {
						t.Errorf("corrupted %d", i)
					}
					got++
				},
			})
			if err != nil {
				if errors.Is(err, ErrIDsExhausted) {
					break
				}
				t.Fatal(err)
			}
			sent++
		}
		r.client.Progress()
		r.poller.Progress()
	}
	if got != total {
		t.Fatalf("completed %d/%d", got, total)
	}
	// Pool drained, memory reclaimed.
	if r.poller.ResponsePending() != 0 {
		t.Error("duplex tasks pending")
	}
	if r.client.alloc.Live() != 1 {
		t.Errorf("client leaked %d blocks", r.client.alloc.Live()-1)
	}
}

// TestDuplexLivenessHeldHeadRequest drives the credit protocol into the
// state both liveness rules exist for, one step at a time. The first
// request of a block is held while the rest of the block is answered one
// response per poller pass. Until the held request finishes, the server
// can acknowledge nothing: the block heads its acknowledgment prefix, and
// the client's ack-only blocks queue behind it. So the client ends at 0
// credits and the server at its last credit, which rule (a) keeps for a
// block that acknowledges something. Rule (b) then keeps the server from
// sealing one tiny block per response. Each of those blocks would take a
// whole BlockSize of the small send arena, and the held request's response
// could not reserve a slot once they filled it.
func TestDuplexLivenessHeldHeadRequest(t *testing.T) {
	const fast = 40
	ccfg := Config{BlockSize: 4096, Credits: 2, SBufSize: 1 << 16, CQDepth: 64, BusyPoll: true}
	scfg := ccfg
	scfg.HostWorkers = 2
	gates := make([]chan struct{}, fast+1)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	opened := make([]bool, fast+1)
	open := func(i int) {
		if !opened[i] {
			opened[i] = true
			close(gates[i])
		}
	}
	r := newRig(t, ccfg, scfg, func(req Request) ResponseSpec {
		<-gates[binary.LittleEndian.Uint64(req.Payload)]
		return ResponseSpec{}
	})
	defer r.poller.Close()
	defer func() { // a failed run must still free the workers it holds
		for i := range gates {
			open(i)
		}
	}()
	got := 0
	for i := 0; i <= fast; i++ {
		err := r.client.Enqueue(CallSpec{
			Size: 8,
			Build: func(dst []byte, _ uint64) (uint32, int, error) {
				binary.LittleEndian.PutUint64(dst, uint64(i))
				return 0, 8, nil
			},
			OnResponse: func(Response) { got++ },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := r.client.Flush(); err != nil { // one block: request 0 heads it
		t.Fatal(err)
	}
	for i := 1; i <= fast; i++ {
		open(i)
		handled := uint64(i)
		pumpUntil(t, r, func() bool { return r.server.Counters.DuplexHandled == handled })
	}
	if got == fast {
		t.Fatal("every fast response arrived: the held request no longer blocks the acknowledgment prefix")
	}
	if c := r.server.Credits(); c != 1 || r.server.ackReady != 0 {
		t.Errorf("server credits=%d ackReady=%d, want the last credit and nothing to acknowledge", c, r.server.ackReady)
	}
	open(0)
	pumpUntil(t, r, func() bool { return got == fast+1 })
}

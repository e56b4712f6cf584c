package rpcrdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dpurpc/internal/arena"
	"dpurpc/internal/fabric"
	"dpurpc/internal/rdma"
)

// testRig wires one client and one server over a fresh fabric with an echo
// handler (unless overridden).
type testRig struct {
	link   *fabric.Link
	poller *ServerPoller
	client *ClientConn
	server *ServerConn
}

func echoHandler(req Request) ResponseSpec {
	payload := append([]byte(nil), req.Payload...)
	return ResponseSpec{
		Status: req.Method, // echo the method as status for visibility
		Size:   len(payload),
		Build: func(dst []byte, regionOff uint64) (uint32, int, error) {
			copy(dst, payload)
			return req.Root, len(payload), nil
		},
	}
}

func newRig(t *testing.T, ccfg, scfg Config, h Handler) *testRig {
	t.Helper()
	if h == nil {
		h = echoHandler
	}
	link := fabric.NewLink()
	clientDev := rdma.NewDevice("dpu", link, fabric.DPUToHost)
	serverDev := rdma.NewDevice("host", link, fabric.HostToDPU)
	poller := NewServerPoller(scfg)
	client, server, err := Connect(clientDev, serverDev, ccfg, scfg, poller, h)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{link: link, poller: poller, client: client, server: server}
}

// pump runs both event loops until the client has no outstanding requests
// or progress stalls. A stall is two seconds without a block moving, not a
// number of passes: an idle busy-poll pass takes well under a microsecond,
// so a pass budget measures how quickly the scheduler runs the host's worker
// goroutines on this machine, not whether the protocol is live.
func (r *testRig) pump(t *testing.T) {
	t.Helper()
	lastEvent := time.Now()
	for r.client.Outstanding() > 0 && time.Since(lastEvent) < 2*time.Second {
		ce, err := r.client.Progress()
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		se, err := r.poller.Progress()
		if err != nil {
			t.Fatalf("server: %v", err)
		}
		if ce+se > 0 {
			lastEvent = time.Now()
		}
	}
	if r.client.Outstanding() > 0 {
		t.Fatalf("stalled with %d outstanding (credits=%d)", r.client.Outstanding(), r.client.Credits())
	}
}

// call issues count requests with payloads derived from their index and
// validates the echoes. Send-buffer exhaustion (the library's backpressure
// signal) is handled by pumping the event loops and retrying.
func (r *testRig) call(t *testing.T, count, payloadSize int) {
	t.Helper()
	got := 0
	for i := 0; i < count; i++ {
		i := i
		enqueue := func() error {
			return r.client.Enqueue(CallSpec{
				Method: uint16(i % 7),
				Size:   payloadSize,
				Build: func(dst []byte, regionOff uint64) (uint32, int, error) {
					if payloadSize >= 8 {
						binary.LittleEndian.PutUint64(dst, uint64(i))
					}
					return uint32(i), payloadSize, nil
				},
				OnResponse: func(resp Response) {
					got++
					if resp.Err {
						t.Errorf("request %d: error response", i)
					}
					if resp.Status != uint16(i%7) {
						t.Errorf("request %d: status %d", i, resp.Status)
					}
					if resp.Root != uint32(i) {
						t.Errorf("request %d: root %d", i, resp.Root)
					}
					if payloadSize >= 8 {
						if v := binary.LittleEndian.Uint64(resp.Payload); v != uint64(i) {
							t.Errorf("request %d: payload %d", i, v)
						}
					}
					if len(resp.Payload) != payloadSize {
						t.Errorf("request %d: payload len %d", i, len(resp.Payload))
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
	if got != count {
		t.Fatalf("received %d/%d responses", got, count)
	}
}

func smallCfg() (Config, Config) {
	ccfg := Config{BlockSize: 4096, Credits: 8, SBufSize: 1 << 18, CQDepth: 64, BusyPoll: true}
	scfg := Config{BlockSize: 4096, Credits: 8, SBufSize: 1 << 18, CQDepth: 64, BusyPoll: true}
	return ccfg, scfg
}

func TestSingleCall(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 1, 64)
	if r.client.Counters.BlocksSent != 1 || r.client.Counters.ResponsesReceived != 1 {
		t.Errorf("counters: %+v", r.client.Counters)
	}
	if r.client.Counters.PartialFlushes != 1 {
		t.Error("single small message should be a partial flush")
	}
}

func TestBatchingFillsBlocks(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	// 64-byte payloads -> 80-byte slots; 4096-byte blocks hold ~50.
	r.call(t, 500, 64)
	c := r.client.Counters
	if c.BlocksSent >= 500 || c.BlocksSent < 5 {
		t.Errorf("500 requests used %d blocks; batching broken", c.BlocksSent)
	}
	msgsPerBlock := float64(c.RequestsSent) / float64(c.BlocksSent)
	if msgsPerBlock < 30 {
		t.Errorf("only %.1f messages per block", msgsPerBlock)
	}
}

func TestZeroByteAndNilBuildPayloads(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	got := false
	err := r.client.Enqueue(CallSpec{
		Method: 3,
		Size:   0,
		OnResponse: func(resp Response) {
			got = true
			if len(resp.Payload) != 0 {
				t.Errorf("payload len %d", len(resp.Payload))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.pump(t)
	if !got {
		t.Fatal("no response")
	}
}

func TestOversizedMessageGetsOwnBlock(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	// Payload larger than the 4 KiB block size: single-message block.
	r.call(t, 3, 20000)
	if r.client.Counters.BlocksSent != 3 {
		t.Errorf("blocks sent = %d, want 3", r.client.Counters.BlocksSent)
	}
}

func TestTooLargeForBuffer(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	err := r.client.Enqueue(CallSpec{Size: 1 << 20})
	if !errors.Is(err, ErrTooLargeForBuffer) {
		t.Errorf("err = %v", err)
	}
	// MaxPayload is Reserve's exact bound.
	limit := r.client.MaxPayload()
	if _, err := r.client.Reserve(1, limit+1, func(Response) {}); !errors.Is(err, ErrTooLargeForBuffer) {
		t.Errorf("Reserve(MaxPayload+1): err = %v", err)
	}
	res, err := r.client.Reserve(1, limit, func(Response) {})
	if err != nil {
		t.Fatalf("Reserve(MaxPayload = %d): %v", limit, err)
	}
	r.client.Cancel(res)
}

// A response of exactly ServerConn.MaxPayload bytes is placed; one 8 bytes
// larger is answered with the refusal (status 13, the send buffer's error
// text) instead of breaking the connection, which then serves a small call.
func TestResponseTooLargeForBuffer(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("host_workers_%d", workers), func(t *testing.T) {
			ccfg, scfg := smallCfg()
			scfg.HostWorkers = workers
			// The request carries the response size to build.
			h := func(req Request) ResponseSpec {
				n := int(binary.LittleEndian.Uint64(req.Payload))
				return ResponseSpec{Size: n, Build: func(dst []byte, _ uint64) (uint32, int, error) {
					for i := range dst {
						dst[i] = byte(i)
					}
					return 0, n, nil
				}}
			}
			r := newRig(t, ccfg, scfg, h)
			limit := r.server.MaxPayload()
			call := func(n int) Response {
				var got Response
				var done bool
				err := r.client.Enqueue(CallSpec{
					Size: 8,
					Build: func(dst []byte, _ uint64) (uint32, int, error) {
						binary.LittleEndian.PutUint64(dst, uint64(n))
						return 0, 8, nil
					},
					OnResponse: func(resp Response) {
						got, done = resp, true
						got.Payload = append([]byte(nil), resp.Payload...)
					},
				})
				if err != nil {
					t.Fatalf("enqueue (response of %d bytes): %v", n, err)
				}
				r.pump(t)
				if !done {
					t.Fatalf("no response for a response of %d bytes", n)
				}
				return got
			}
			if resp := call(limit); resp.Err || len(resp.Payload) != limit {
				t.Fatalf("response of MaxPayload = %d bytes: err %v, %d bytes", limit, resp.Err, len(resp.Payload))
			}
			resp := call(limit + 8)
			if !resp.Err || resp.Status != duplexBuildFailed || !bytes.Contains(resp.Payload, []byte("larger than send buffer")) {
				t.Fatalf("response of MaxPayload+8 bytes: err %v, status %d, payload %q", resp.Err, resp.Status, resp.Payload)
			}
			if resp := call(64); resp.Err || len(resp.Payload) != 64 {
				t.Fatalf("small call after the refusal: err %v, %d bytes", resp.Err, len(resp.Payload))
			}
			if err := r.server.Broken(); err != nil {
				t.Fatalf("connection broken: %v", err)
			}
		})
	}
}

func TestCreditLimitRespected(t *testing.T) {
	ccfg, scfg := smallCfg()
	ccfg.Credits = 2
	r := newRig(t, ccfg, scfg, nil)
	// Enough traffic to need far more than 2 in-flight blocks.
	r.call(t, 2000, 64)
	if r.client.Counters.CreditStalls == 0 {
		t.Error("expected credit stalls with 2 credits")
	}
	if r.client.Credits() != 2 {
		t.Errorf("credits not restored: %d", r.client.Credits())
	}
	// Data blocks stop at 1 credit: a block that acknowledges nothing may
	// not take the last one.
	if r.client.Counters.MinCreditsSeen != 1 {
		t.Errorf("min credits = %d", r.client.Counters.MinCreditsSeen)
	}
	// And the connection never went RNR (the point of credits, Sec. IV-C).
}

func TestConnectRejectsSingleCredit(t *testing.T) {
	// One credit could never carry data, since a block that acknowledges
	// nothing may not take a side's last credit; Connect refuses the
	// configuration and names the side and the rule.
	cases := []struct {
		name             string
		client, server   int
		wantErrSubstring string
	}{
		{"both-2", 2, 2, ""},
		{"client-1", 1, 8, "client credits 1 < 2"},
		{"server-1", 8, 1, "server credits 1 < 2"},
		{"client-negative", -3, 8, "client credits -3 < 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ccfg, scfg := smallCfg()
			ccfg.Credits, scfg.Credits = tc.client, tc.server
			link := fabric.NewLink()
			poller := NewServerPoller(scfg)
			defer poller.Close()
			_, _, err := Connect(rdma.NewDevice("dpu", link, fabric.DPUToHost),
				rdma.NewDevice("host", link, fabric.HostToDPU), ccfg, scfg, poller, echoHandler)
			if tc.wantErrSubstring == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("accepted")
			}
			for _, want := range []string{tc.wantErrSubstring, "acknowledges nothing", "last credit"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q lacks %q", err, want)
				}
			}
		})
	}
}

func TestCreditsNeverNegativeAndRestored(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	for round := 0; round < 5; round++ {
		r.call(t, 300, 128)
		if r.client.Credits() != ccfg.Credits {
			t.Fatalf("round %d: client credits %d", round, r.client.Credits())
		}
	}
	// The tail of the final round's response blocks stays unacknowledged
	// until the client's next request block, so credits + unacked = budget.
	if r.server.Credits()+len(r.server.unfree) != scfg.Credits {
		t.Fatalf("server credits %d + unacked %d != %d",
			r.server.Credits(), len(r.server.unfree), scfg.Credits)
	}
	// All block memory must be reclaimed after quiescence (client side
	// fully, server side may retain blocks pending the final ack).
	if r.client.alloc.Live() != 1 { // the offset-0 guard
		t.Errorf("client leaked %d blocks", r.client.alloc.Live()-1)
	}
}

func TestServerMemoryReclaimedAfterAcks(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 1000, 64)
	// The last response block is never acked (no further request blocks),
	// so the server may retain up to a handful; but not all of them.
	live := r.server.alloc.Live() - 1 // minus guard
	if uint64(live) >= r.server.Counters.BlocksSent {
		t.Errorf("server reclaimed nothing: %d live of %d sent", live, r.server.Counters.BlocksSent)
	}
	// Now one more round rides the ack for everything prior.
	r.call(t, 1, 8)
	if got := r.server.alloc.Live() - 1; got > 2 {
		t.Errorf("server still holds %d response blocks", got)
	}
}

func TestManyRounds(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	for i := 0; i < 20; i++ {
		r.call(t, 100, 32+i*16)
	}
	if r.client.Counters.ResponsesReceived != 2000 {
		t.Errorf("responses = %d", r.client.Counters.ResponsesReceived)
	}
}

func TestErrorResponses(t *testing.T) {
	ccfg, scfg := smallCfg()
	h := func(req Request) ResponseSpec {
		if req.Method == 13 {
			return ResponseSpec{Status: 99, Err: true}
		}
		return echoHandler(req)
	}
	r := newRig(t, ccfg, scfg, h)
	var gotErr, gotOK bool
	r.client.Enqueue(CallSpec{Method: 13, Size: 8, OnResponse: func(resp Response) {
		gotErr = resp.Err && resp.Status == 99
	}})
	r.client.Enqueue(CallSpec{Method: 1, Size: 8, OnResponse: func(resp Response) {
		gotOK = !resp.Err
	}})
	r.pump(t)
	if !gotErr || !gotOK {
		t.Errorf("gotErr=%v gotOK=%v", gotErr, gotOK)
	}
	if r.client.Counters.ErrorsReceived != 1 {
		t.Error("error counter wrong")
	}
}

func TestContinuationCanReenqueue(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	depth := 0
	var chain func(resp Response)
	chain = func(resp Response) {
		depth++
		if depth < 10 {
			if err := r.client.Enqueue(CallSpec{Method: 1, Size: 8, OnResponse: chain}); err != nil {
				t.Errorf("re-enqueue: %v", err)
			}
		}
	}
	if err := r.client.Enqueue(CallSpec{Method: 1, Size: 8, OnResponse: chain}); err != nil {
		t.Fatal(err)
	}
	r.pump(t)
	if depth != 10 {
		t.Errorf("chain depth = %d", depth)
	}
}

func TestRequestIDsStaySynchronized(t *testing.T) {
	// After heavy bidirectional traffic with out-of-order-ish completion,
	// the two pools must be in the same state: same availability and the
	// next allocations must match.
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	for round := 0; round < 10; round++ {
		r.call(t, 777, 24)
	}
	// At quiescence the pools hold identical states: the client's
	// not-yet-flushed frees correspond exactly to the IDs the server still
	// holds in unacknowledged response blocks.
	if r.client.pool.Available() != r.server.pool.Available() {
		t.Fatalf("pool divergence: client %d vs server %d",
			r.client.pool.Available(), r.server.pool.Available())
	}
	pendingClient := len(r.client.freeIDs)
	pendingServer := 0
	for _, b := range r.server.unfree {
		pendingServer += len(b.ids)
	}
	if pendingClient != pendingServer {
		t.Fatalf("pending frees diverge: client %d vs server-unacked %d",
			pendingClient, pendingServer)
	}
	if r.client.pool.Available()+pendingClient != IDPoolSize {
		t.Fatalf("IDs leaked: %d available + %d pending != %d",
			r.client.pool.Available(), pendingClient, IDPoolSize)
	}
}

func TestPayloadEchoIntegrity(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	payload := bytes.Repeat([]byte{0xa5, 0x5a, 0x01}, 300)
	var echoed []byte
	r.client.Enqueue(CallSpec{
		Method: 2,
		Size:   len(payload),
		Build: func(dst []byte, regionOff uint64) (uint32, int, error) {
			copy(dst, payload)
			return 0, len(payload), nil
		},
		OnResponse: func(resp Response) {
			echoed = append([]byte(nil), resp.Payload...)
		},
	})
	r.pump(t)
	if !bytes.Equal(echoed, payload) {
		t.Error("payload corrupted in flight")
	}
}

func TestBuildErrorPropagates(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	boom := fmt.Errorf("boom")
	err := r.client.Enqueue(CallSpec{
		Size:  8,
		Build: func(dst []byte, regionOff uint64) (uint32, int, error) { return 0, 0, boom },
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	// Build overflow is rejected.
	err = r.client.Enqueue(CallSpec{
		Size:  8,
		Build: func(dst []byte, regionOff uint64) (uint32, int, error) { return 0, 9, nil },
	})
	if !errors.Is(err, ErrPayloadSize) {
		t.Errorf("overflow err = %v", err)
	}
}

func TestRegionOffsetsNeverZero(t *testing.T) {
	ccfg, scfg := smallCfg()
	var reqOff, respOff uint64
	h := func(req Request) ResponseSpec {
		reqOff = req.RegionOff
		return ResponseSpec{Size: 8, Build: func(dst []byte, regionOff uint64) (uint32, int, error) {
			respOff = regionOff
			return 0, 8, nil
		}}
	}
	r := newRig(t, ccfg, scfg, h)
	r.client.Enqueue(CallSpec{Size: 8, OnResponse: func(Response) {}})
	r.pump(t)
	if reqOff < BlockAlign || respOff < BlockAlign {
		t.Errorf("region offsets too low: req=%d resp=%d (NullRef hazard)", reqOff, respOff)
	}
}

func TestBlockingPollMode(t *testing.T) {
	ccfg, scfg := smallCfg()
	ccfg.BusyPoll = false
	scfg.BusyPoll = false
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 50, 32)
}

func TestMultipleConnsOneServerPoller(t *testing.T) {
	// Sec. III-C: a single server poller shares multiple connections over
	// one receive CQ.
	link := fabric.NewLink()
	clientDev := rdma.NewDevice("dpu", link, fabric.DPUToHost)
	serverDev := rdma.NewDevice("host", link, fabric.HostToDPU)
	scfg := Config{BlockSize: 4096, Credits: 8, SBufSize: 1 << 18, CQDepth: 256, BusyPoll: true}
	ccfg := Config{BlockSize: 4096, Credits: 8, SBufSize: 1 << 18, CQDepth: 64, BusyPoll: true}
	poller := NewServerPoller(scfg)
	var clients []*ClientConn
	for i := 0; i < 4; i++ {
		cc, _, err := Connect(clientDev, serverDev, ccfg, scfg, poller, echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cc)
	}
	got := 0
	for i, cc := range clients {
		for j := 0; j < 100; j++ {
			v := uint64(i*1000 + j)
			cc.Enqueue(CallSpec{
				Size: 16,
				Build: func(dst []byte, _ uint64) (uint32, int, error) {
					binary.LittleEndian.PutUint64(dst, v)
					return 0, 16, nil
				},
				OnResponse: func(resp Response) {
					got++
					if binary.LittleEndian.Uint64(resp.Payload) != v {
						t.Errorf("cross-connection payload mixup")
					}
				},
			})
		}
	}
	outstanding := func() int {
		n := 0
		for _, cc := range clients {
			n += cc.Outstanding()
		}
		return n
	}
	for idle := 0; outstanding() > 0 && idle < 1000; {
		ev := 0
		for _, cc := range clients {
			e, err := cc.Progress()
			if err != nil {
				t.Fatal(err)
			}
			ev += e
		}
		e, err := poller.Progress()
		if err != nil {
			t.Fatal(err)
		}
		ev += e
		if ev == 0 {
			idle++
		} else {
			idle = 0
		}
	}
	if got != 400 {
		t.Fatalf("got %d/400 responses", got)
	}
	if len(poller.Conns()) != 4 {
		t.Error("poller conns wrong")
	}
}

func TestPollerCapacityEnforced(t *testing.T) {
	link := fabric.NewLink()
	clientDev := rdma.NewDevice("dpu", link, fabric.DPUToHost)
	serverDev := rdma.NewDevice("host", link, fabric.HostToDPU)
	scfg := Config{BlockSize: 4096, Credits: 8, SBufSize: 1 << 18, CQDepth: 20, BusyPoll: true}
	ccfg := Config{BlockSize: 4096, Credits: 8, SBufSize: 1 << 18, CQDepth: 64, BusyPoll: true}
	poller := NewServerPoller(scfg)
	if _, _, err := Connect(clientDev, serverDev, ccfg, scfg, poller, echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Connect(clientDev, serverDev, ccfg, scfg, poller, echoHandler); !errors.Is(err, ErrPollerFull) {
		t.Errorf("second conn: %v", err)
	}
}

func TestNoRNREverUnderLoad(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 5000, 40)
	if r.client.qp.RNRCount() != 0 || r.server.qp.RNRCount() != 0 {
		t.Error("RNR occurred despite credit control")
	}
}

func TestFabricAccountingMatchesTraffic(t *testing.T) {
	check := func(t *testing.T, r *testRig) {
		t.Helper()
		d2h := r.link.Stats(fabric.DPUToHost)
		h2d := r.link.Stats(fabric.HostToDPU)
		if d2h.Bytes != r.client.Counters.PayloadBytesSent {
			t.Errorf("dpu->host bytes %d vs counter %d", d2h.Bytes, r.client.Counters.PayloadBytesSent)
		}
		if h2d.Bytes != r.server.Counters.PayloadBytesSent {
			t.Errorf("host->dpu bytes %d vs counter %d", h2d.Bytes, r.server.Counters.PayloadBytesSent)
		}
		if d2h.Transfers != r.client.Counters.BlocksSent {
			t.Error("transfer count mismatch")
		}
	}
	t.Run("echo", func(t *testing.T) {
		ccfg, scfg := smallCfg()
		r := newRig(t, ccfg, scfg, nil)
		r.call(t, 100, 64)
		check(t, r)
	})
	t.Run("ack-only", func(t *testing.T) {
		// A held request keeps the client outstanding after a fast
		// response lands, with nothing queued to carry the acknowledgment:
		// the event loop sends it in an empty block, whose bytes count too.
		ccfg, scfg := duplexCfg(2)
		release := make(chan struct{})
		r := newRig(t, ccfg, scfg, func(req Request) ResponseSpec {
			if req.Method == 99 {
				select { // bounded, so a failed run still closes the pool
				case <-release:
				case <-time.After(10 * time.Second):
				}
			}
			return ResponseSpec{}
		})
		defer r.poller.Close()
		slowDone, fastDone := false, false
		r.client.Enqueue(CallSpec{Method: 99, Size: 8, OnResponse: func(Response) { slowDone = true }})
		r.client.Enqueue(CallSpec{Method: 1, Size: 8, OnResponse: func(Response) { fastDone = true }})
		pumpUntil(t, r, func() bool { return fastDone && r.client.Counters.AckOnlyBlocks > 0 })
		close(release)
		pumpUntil(t, r, func() bool { return slowDone })
		check(t, r)
	})
}

func TestPreambleHeaderRoundTrip(t *testing.T) {
	b := make([]byte, 4096)
	p := preamble{msgCount: 7, ackBlocks: 3, blockLen: 4096, seq: 42}
	putPreamble(b, p)
	got, err := parsePreamble(b)
	if err != nil || got != p {
		t.Errorf("preamble round trip: %+v, %v", got, err)
	}
	if _, err := parsePreamble(b[:4]); err == nil {
		t.Error("short preamble accepted")
	}
	// blockLen larger than the received byte count is corruption.
	if _, err := parsePreamble(b[:1024]); err == nil {
		t.Error("over-long blockLen accepted")
	}
	binary.LittleEndian.PutUint32(b[4:8], 8) // blockLen < PreambleSize
	if _, err := parsePreamble(b); err == nil {
		t.Error("undersized blockLen accepted")
	}

	var hb [HeaderSize]byte
	h := header{payloadLen: 100, rootOff: 64, method: 9, reqID: 1000, response: true, errFlag: true}
	putHeader(hb[:], h)
	gh, err := parseHeader(hb[:])
	if err != nil || gh != h {
		t.Errorf("header round trip: %+v, %v", gh, err)
	}
	if _, err := parseHeader(hb[:8]); err == nil {
		t.Error("short header accepted")
	}
}

func TestAlignUp(t *testing.T) {
	cases := map[int]int{0: 0, 1: 8, 7: 8, 8: 8, 9: 16, 4096: 4096}
	for in, want := range cases {
		if got := alignUp(in); got != want {
			t.Errorf("alignUp(%d) = %d want %d", in, got, want)
		}
	}
	if slotSize(10) != HeaderSize+16 {
		t.Error("slotSize wrong")
	}
}

// BenchmarkEchoBatch is the 64-byte echo round trip under commit
// coalescing: up to commit=N messages share one doorbell. The driver keeps
// 256 calls in flight so batches fill immediately; the short flush timeout
// only bounds the final partial batch of each measurement round. commit=1
// is the flush-every-pass baseline of BenchmarkEchoRoundTrip64B.
// Snapshotted into BENCH_batch.json by `make bench`.
func BenchmarkEchoBatch(b *testing.B) {
	for _, commit := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("commit=%d", commit), func(b *testing.B) {
			cfg := Config{BlockSize: 8192, Credits: 64, SBufSize: 1 << 22,
				CQDepth: 256, BusyPoll: true, CommitBatch: commit,
				CommitFlushTimeout: 100 * time.Microsecond}
			link := fabric.NewLink()
			poller := NewServerPoller(cfg)
			client, _, err := Connect(
				rdma.NewDevice("dpu", link, fabric.DPUToHost),
				rdma.NewDevice("host", link, fabric.HostToDPU),
				cfg, cfg, poller,
				func(req Request) ResponseSpec { return ResponseSpec{Size: 0} })
			if err != nil {
				b.Fatal(err)
			}
			const batch = 256
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for done < b.N {
				n := batch
				if n > b.N-done {
					n = b.N - done
				}
				for i := 0; i < n; i++ {
					client.Enqueue(CallSpec{
						Size:       64,
						OnResponse: func(Response) {},
					})
				}
				for client.Outstanding() > 0 {
					client.Progress()
					poller.Progress()
				}
				done += n
			}
		})
	}
}

func BenchmarkEchoRoundTrip64B(b *testing.B) {
	ccfg := Config{BlockSize: 8192, Credits: 64, SBufSize: 1 << 22, CQDepth: 256, BusyPoll: true}
	scfg := Config{BlockSize: 8192, Credits: 64, SBufSize: 1 << 22, CQDepth: 256, BusyPoll: true}
	link := fabric.NewLink()
	poller := NewServerPoller(scfg)
	client, _, err := Connect(
		rdma.NewDevice("dpu", link, fabric.DPUToHost),
		rdma.NewDevice("host", link, fabric.HostToDPU),
		ccfg, scfg, poller,
		func(req Request) ResponseSpec { return ResponseSpec{Size: 0} })
	if err != nil {
		b.Fatal(err)
	}
	const batch = 256
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		n := batch
		if n > b.N-done {
			n = b.N - done
		}
		for i := 0; i < n; i++ {
			client.Enqueue(CallSpec{
				Size:       64,
				OnResponse: func(Response) {},
			})
		}
		for client.Outstanding() > 0 {
			client.Progress()
			poller.Progress()
		}
		done += n
	}
}

func TestExactAcksForegroundStillCorrect(t *testing.T) {
	// The exact (per-block-completion) acknowledgment counter behaves like
	// the paper's implicit scheme for foreground servers: all memory and
	// credits return after quiescence.
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 1000, 64)
	if r.client.Credits() != ccfg.Credits {
		t.Errorf("credits not restored: %d", r.client.Credits())
	}
	if r.client.alloc.Live() != 1 {
		t.Errorf("client leaked %d blocks", r.client.alloc.Live()-1)
	}
	if len(r.server.reqBlockOf) != 0 {
		t.Errorf("server retains %d in-flight request IDs", len(r.server.reqBlockOf))
	}
}

func TestObjectFlagRoundTrip(t *testing.T) {
	// The response-serialization-offload marker travels end to end.
	ccfg, scfg := smallCfg()
	h := func(req Request) ResponseSpec {
		return ResponseSpec{
			Object: true,
			Size:   24,
			Build: func(dst []byte, regionOff uint64) (uint32, int, error) {
				binary.LittleEndian.PutUint64(dst[8:], 0x1122334455667788)
				return 8, 24, nil
			},
		}
	}
	r := newRig(t, ccfg, scfg, h)
	var resp Response
	got := false
	r.client.Enqueue(CallSpec{Size: 8, OnResponse: func(rp Response) {
		got = true
		resp = Response{Status: rp.Status, Err: rp.Err, Object: rp.Object,
			Root: rp.Root, RegionOff: rp.RegionOff,
			Payload: append([]byte(nil), rp.Payload...)}
	}})
	r.pump(t)
	if !got {
		t.Fatal("no response")
	}
	if !resp.Object {
		t.Error("object flag lost")
	}
	if resp.Root != 8 {
		t.Errorf("root = %d", resp.Root)
	}
	if binary.LittleEndian.Uint64(resp.Payload[8:]) != 0x1122334455667788 {
		t.Error("object payload wrong")
	}
}

func TestHeaderObjectFlag(t *testing.T) {
	var b [HeaderSize]byte
	h := header{payloadLen: 8, response: true, object: true}
	putHeader(b[:], h)
	got, err := parseHeader(b[:])
	if err != nil || !got.object {
		t.Errorf("object flag round trip: %+v %v", got, err)
	}
	h.object = false
	putHeader(b[:], h)
	got, _ = parseHeader(b[:])
	if got.object {
		t.Error("object flag set spuriously")
	}
}

func TestLatencyObserver(t *testing.T) {
	ccfg, scfg := smallCfg()
	var samples []float64
	ccfg.LatencyObserver = func(ns float64) { samples = append(samples, ns) }
	r := newRig(t, ccfg, scfg, nil)
	r.call(t, 200, 32)
	if len(samples) != 200 {
		t.Fatalf("observed %d latencies", len(samples))
	}
	for i, ns := range samples {
		if ns < 0 || ns > 60e9 {
			t.Fatalf("sample %d implausible: %g ns", i, ns)
		}
	}
}

func TestAbortFailsEverything(t *testing.T) {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, nil)
	results := map[string]int{}
	// One request in flight, one still buffered (never flushed).
	r.client.Enqueue(CallSpec{Size: 8, OnResponse: func(resp Response) {
		if resp.Err {
			results["first-failed"]++
		} else {
			results["first-ok"]++
		}
	}})
	r.client.Flush() // now in flight, unanswered (no server progress)
	r.client.Enqueue(CallSpec{Size: 8, OnResponse: func(resp Response) {
		if resp.Err {
			results["second-failed"]++
		} else {
			results["second-ok"]++
		}
	}})
	// Abort before the server ever runs.
	r.client.Abort(99)
	if r.client.Outstanding() != 0 {
		t.Errorf("outstanding = %d after abort", r.client.Outstanding())
	}
	if results["first-failed"] != 1 || results["second-failed"] != 1 {
		t.Errorf("continuations not failed: %v", results)
	}
	if r.client.Broken() == nil {
		t.Error("connection not broken after abort")
	}
	if err := r.client.Enqueue(CallSpec{Size: 8}); err == nil {
		t.Error("enqueue after abort accepted")
	}
	// Double abort is harmless (continuations fire at most once).
	r.client.Abort(99)
	if results["first-failed"] != 1 || results["second-failed"] != 1 {
		t.Errorf("double abort re-fired continuations: %v", results)
	}
}

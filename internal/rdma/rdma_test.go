package rdma

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"dpurpc/internal/fabric"
)

// pair builds a connected host<->dpu QP pair with rbufSize receive regions.
func pair(t *testing.T, rbufSize, cqDepth int) (dpuQP, hostQP *QP, link *fabric.Link) {
	t.Helper()
	link = fabric.NewLink()
	dpuDev := NewDevice("dpu", link, fabric.DPUToHost)
	hostDev := NewDevice("host", link, fabric.HostToDPU)
	dpuPD := dpuDev.AllocPD()
	hostPD := hostDev.AllocPD()
	dpuRBuf := dpuPD.RegisterMR(make([]byte, rbufSize))
	hostRBuf := hostPD.RegisterMR(make([]byte, rbufSize))
	dpuQP = dpuPD.CreateQP(NewCQ(cqDepth), NewCQ(cqDepth), dpuRBuf)
	hostQP = hostPD.CreateQP(NewCQ(cqDepth), NewCQ(cqDepth), hostRBuf)
	Connect(dpuQP, hostQP)
	return dpuQP, hostQP, link
}

func TestWriteImmDeliversDataAndImm(t *testing.T) {
	dpu, host, link := pair(t, 4096, 16)
	if err := host.PostRecv(RecvWR{WRID: 7}); err != nil {
		t.Fatal(err)
	}
	payload := []byte("block contents here")
	if err := dpu.PostWriteImm(42, payload, 1024, 0xbeef); err != nil {
		t.Fatal(err)
	}
	var out [4]CQE
	// Receiver completion.
	n := host.recvCQ.Poll(out[:])
	if n != 1 {
		t.Fatalf("host completions = %d", n)
	}
	e := out[0]
	if e.Opcode != OpRecvWriteImm || e.Status != StatusOK || e.ImmData != 0xbeef ||
		e.WRID != 7 || e.ByteLen != uint32(len(payload)) {
		t.Fatalf("bad recv CQE: %+v", e)
	}
	if !bytes.Equal(host.recvMR.Bytes()[1024:1024+len(payload)], payload) {
		t.Error("payload not placed at remote offset")
	}
	// Sender completion.
	n = dpu.sendCQ.Poll(out[:])
	if n != 1 || out[0].Opcode != OpWriteImm || out[0].Status != StatusOK || out[0].WRID != 42 {
		t.Fatalf("bad send CQE: %+v", out[0])
	}
	// Fabric accounting.
	s := link.Stats(fabric.DPUToHost)
	if s.Bytes != uint64(len(payload)) || s.Transfers != 1 {
		t.Errorf("fabric stats = %+v", s)
	}
	if link.Stats(fabric.HostToDPU).Transfers != 0 {
		t.Error("wrong direction accounted")
	}
}

func TestWriteImmRNRWhenNoRecvPosted(t *testing.T) {
	dpu, _, _ := pair(t, 4096, 16)
	err := dpu.PostWriteImm(1, []byte("x"), 0, 0)
	if !errors.Is(err, ErrRNR) {
		t.Fatalf("err = %v", err)
	}
	if dpu.RNRCount() != 1 {
		t.Error("RNR not counted")
	}
	var out [1]CQE
	if n := dpu.sendCQ.Poll(out[:]); n != 1 || out[0].Status != StatusRNR {
		t.Error("sender did not observe RNR completion")
	}
}

func TestWriteImmBounds(t *testing.T) {
	dpu, host, _ := pair(t, 128, 16)
	host.PostRecv(RecvWR{})
	if err := dpu.PostWriteImm(1, make([]byte, 64), 100, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("out-of-bounds write: %v", err)
	}
	// Receive WR must NOT have been consumed by the failed op... it is
	// verbs-accurate for the bounds check to happen before WR consumption.
	if host.RecvDepth() != 1 {
		t.Error("failed write consumed a receive WR")
	}
}

func TestSendRecv(t *testing.T) {
	dpu, host, link := pair(t, 0, 16)
	buf := make([]byte, 64)
	host.PostRecv(RecvWR{WRID: 9, Buf: buf})
	msg := []byte("control message")
	if err := dpu.PostSend(3, msg); err != nil {
		t.Fatal(err)
	}
	var out [1]CQE
	if n := host.recvCQ.Poll(out[:]); n != 1 {
		t.Fatal("no recv completion")
	}
	if out[0].Opcode != OpRecv || out[0].ByteLen != uint32(len(msg)) {
		t.Fatalf("bad CQE %+v", out[0])
	}
	if !bytes.Equal(buf[:len(msg)], msg) {
		t.Error("payload not copied")
	}
	if link.Stats(fabric.DPUToHost).Bytes != uint64(len(msg)) {
		t.Error("send not accounted")
	}
	// Too-large payload.
	host.PostRecv(RecvWR{Buf: make([]byte, 4)})
	if err := dpu.PostSend(4, make([]byte, 10)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized send: %v", err)
	}
}

func TestReliableOrdering(t *testing.T) {
	dpu, host, _ := pair(t, 1<<16, 1024)
	for i := 0; i < 100; i++ {
		host.PostRecv(RecvWR{WRID: uint64(i)})
	}
	for i := 0; i < 100; i++ {
		if err := dpu.PostWriteImm(uint64(i), []byte{byte(i)}, uint64(i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]CQE, 128)
	n := host.recvCQ.Poll(out)
	if n != 100 {
		t.Fatalf("got %d completions", n)
	}
	for i := 0; i < 100; i++ {
		if out[i].ImmData != uint32(i) || out[i].WRID != uint64(i) {
			t.Fatalf("completion %d out of order: %+v", i, out[i])
		}
	}
}

func TestCQOverflowIsSticky(t *testing.T) {
	link := fabric.NewLink()
	dpuPD := NewDevice("dpu", link, fabric.DPUToHost).AllocPD()
	hostPD := NewDevice("host", link, fabric.HostToDPU).AllocPD()
	hostRBuf := hostPD.RegisterMR(make([]byte, 1<<16))
	dpu := dpuPD.CreateQP(NewCQ(2), NewCQ(16), nil) // tiny send CQ
	host := hostPD.CreateQP(NewCQ(16), NewCQ(16), hostRBuf)
	Connect(dpu, host)

	for i := 0; i < 3; i++ {
		if err := host.PostRecv(RecvWR{}); err != nil {
			t.Fatal(err)
		}
	}
	// Sender never drains its send CQ (depth 2): the third op overflows it.
	for i := 0; i < 2; i++ {
		if err := dpu.PostWriteImm(uint64(i), []byte{1}, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	err := dpu.PostWriteImm(9, []byte{1}, 0, 0)
	if !errors.Is(err, ErrCQOverflow) {
		t.Fatalf("expected send CQ overflow, got %v", err)
	}
	if !dpu.sendCQ.Overflowed() {
		t.Error("overflow not sticky")
	}
}

func TestRecvQueueCappedAtCQDepth(t *testing.T) {
	// Posting more receive WRs than the recv CQ can complete is a protocol
	// bug (guaranteed overflow); the guard surfaces it immediately.
	_, host, _ := pair(t, 1<<16, 2)
	for i := 0; i < 2; i++ {
		if err := host.PostRecv(RecvWR{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := host.PostRecv(RecvWR{}); !errors.Is(err, ErrRecvQFull) {
		t.Errorf("recvQ overfill: %v", err)
	}
}

func TestWaitBlocksAndWakes(t *testing.T) {
	dpu, host, _ := pair(t, 4096, 16)
	host.PostRecv(RecvWR{})
	var out [4]CQE
	// Nothing yet: times out.
	start := time.Now()
	if n, _ := host.recvCQ.Wait(out[:], 20*time.Millisecond); n != 0 {
		t.Fatal("spurious wakeup")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("Wait returned early")
	}
	// Wake on delivery from another goroutine.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		dpu.PostWriteImm(1, []byte("x"), 0, 5)
	}()
	n, _ := host.recvCQ.Wait(out[:], time.Second)
	wg.Wait()
	if n != 1 || out[0].ImmData != 5 {
		t.Fatalf("Wait got %d completions", n)
	}
	// Zero-length out.
	if n, _ := host.recvCQ.Wait(nil, time.Millisecond); n != 0 {
		t.Error("Wait(nil) should return 0")
	}
}

func TestDisconnectedAndClosed(t *testing.T) {
	link := fabric.NewLink()
	dev := NewDevice("x", link, fabric.DPUToHost)
	pd := dev.AllocPD()
	qp := pd.CreateQP(NewCQ(4), NewCQ(4), nil)
	if err := qp.PostWriteImm(1, []byte("x"), 0, 0); !errors.Is(err, ErrNotConnect) {
		t.Errorf("unconnected: %v", err)
	}
	a, b, _ := pair(t, 128, 4)
	b.Close()
	if err := a.PostWriteImm(1, []byte("x"), 0, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("peer closed: %v", err)
	}
	a.Close()
	if err := a.PostRecv(RecvWR{}); !errors.Is(err, ErrClosed) {
		t.Errorf("self closed: %v", err)
	}
	if err := a.PostSend(1, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("send on closed: %v", err)
	}
}

func TestSendRNR(t *testing.T) {
	dpu, _, _ := pair(t, 0, 4)
	if err := dpu.PostSend(1, []byte("x")); !errors.Is(err, ErrRNR) {
		t.Errorf("send RNR: %v", err)
	}
}

func TestConcurrentBidirectionalTraffic(t *testing.T) {
	dpu, host, link := pair(t, 1<<20, 4096)
	const msgs = 1000
	var wg sync.WaitGroup
	errs := make(chan error, 4)

	post := func(qp *QP) {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			if err := qp.PostRecv(RecvWR{WRID: uint64(i)}); err != nil {
				errs <- err
				return
			}
		}
	}
	wg.Add(2)
	go post(dpu)
	go post(host)
	wg.Wait()

	send := func(qp *QP) {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			if err := qp.PostWriteImm(uint64(i), []byte{1, 2, 3, 4}, uint64(i*8), uint32(i)); err != nil {
				errs <- err
				return
			}
		}
	}
	drain := func(qp *QP) {
		defer wg.Done()
		out := make([]CQE, 64)
		got := 0
		deadline := time.Now().Add(5 * time.Second)
		for got < msgs && time.Now().Before(deadline) {
			n, _ := qp.recvCQ.Wait(out, 100*time.Millisecond)
			got += n
		}
		if got != msgs {
			errs <- errors.New("missing completions")
		}
	}
	wg.Add(4)
	go send(dpu)
	go send(host)
	go drain(dpu)
	go drain(host)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if link.Stats(fabric.DPUToHost).Transfers != msgs || link.Stats(fabric.HostToDPU).Transfers != msgs {
		t.Error("transfer counts wrong")
	}
}

func TestFabricWindowAndBusy(t *testing.T) {
	dpu, host, link := pair(t, 4096, 64)
	for i := 0; i < 10; i++ {
		host.PostRecv(RecvWR{})
	}
	d0, h0 := link.Stats(fabric.DPUToHost), link.Stats(fabric.HostToDPU)
	for i := 0; i < 10; i++ {
		dpu.PostWriteImm(0, make([]byte, 100), 0, 0)
	}
	d1, h1 := link.Stats(fabric.DPUToHost), link.Stats(fabric.HostToDPU)
	if d1.Bytes-d0.Bytes != 1000 || d1.Transfers-d0.Transfers != 10 || h1.Transfers != h0.Transfers {
		t.Errorf("window delta: %+v %+v -> %+v %+v", d0, h0, d1, h1)
	}
	// 200 Gb/s: 1000B+overhead -> (1000+260)*8/200 = 50.4ns
	if got := link.TransferNS(d1.TotalBytes() - d0.TotalBytes()); got != 50.4 {
		t.Errorf("window busy time = %v ns, want 50.4", got)
	}
}

func BenchmarkWriteImm8K(b *testing.B) {
	link := fabric.NewLink()
	dpuPD := NewDevice("dpu", link, fabric.DPUToHost).AllocPD()
	hostPD := NewDevice("host", link, fabric.HostToDPU).AllocPD()
	hostRBuf := hostPD.RegisterMR(make([]byte, 1<<20))
	dpu := dpuPD.CreateQP(NewCQ(1024), NewCQ(1024), nil)
	host := hostPD.CreateQP(NewCQ(1024), NewCQ(1024), hostRBuf)
	Connect(dpu, host)
	block := make([]byte, 8192)
	out := make([]CQE, 64)
	b.SetBytes(8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		host.PostRecv(RecvWR{})
		if err := dpu.PostWriteImm(0, block, 0, 0); err != nil {
			b.Fatal(err)
		}
		host.recvCQ.Poll(out)
		dpu.sendCQ.Poll(out)
	}
}

// A gather post delivers exactly the bytes, completions and fabric
// accounting of one contiguous post of the same image, and reads its sources
// only inside the call.
func TestGatherMatchesContiguousPost(t *testing.T) {
	img := make([]byte, 3000)
	for i := range img {
		img[i] = byte(i*7 + 1)
	}
	// Uneven pieces, an empty one among them.
	sgl := [][]byte{img[:5], img[5:5], img[5:1024], img[1024:1031], img[1031:]}
	post := func(gather bool) (recv []byte, cqes [2]CQE, st fabric.DirStats) {
		dpu, host, link := pair(t, 8192, 16)
		postRecvs(t, host, 1)
		src := make([][]byte, len(sgl))
		for i, s := range sgl {
			src[i] = append([]byte(nil), s...)
		}
		var err error
		if gather {
			err = dpu.PostWriteImmGather(9, src, 512, 0x51)
		} else {
			err = dpu.PostWriteImm(9, append([]byte(nil), img...), 512, 0x51)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range src {
			for i := range s {
				s[i] = 0xDB // the caller reuses its memory once the post returns
			}
		}
		if host.recvCQ.Poll(cqes[0:1]) != 1 || dpu.sendCQ.Poll(cqes[1:2]) != 1 {
			t.Fatal("missing completion")
		}
		return host.recvMR.Bytes(), cqes, link.Stats(fabric.DPUToHost)
	}
	wantBuf, wantCQEs, wantStats := post(false)
	gotBuf, gotCQEs, gotStats := post(true)
	if !bytes.Equal(gotBuf[512:512+len(img)], img) || !bytes.Equal(gotBuf, wantBuf) {
		t.Error("gather post placed different bytes than the contiguous post")
	}
	for i := range gotCQEs {
		gotCQEs[i].QPNum, wantCQEs[i].QPNum = 0, 0
	}
	if gotCQEs != wantCQEs {
		t.Errorf("completions %+v, want %+v", gotCQEs, wantCQEs)
	}
	if gotStats != wantStats || gotStats.Bytes != uint64(len(img)) || gotStats.Transfers != 1 {
		t.Errorf("fabric stats %+v, want %+v (%d bytes, one transfer)", gotStats, wantStats, len(img))
	}
}

// A gather post past the region is refused with nothing moved.
func TestGatherOutOfBounds(t *testing.T) {
	dpu, host, link := pair(t, 1024, 16)
	postRecvs(t, host, 1)
	err := dpu.PostWriteImmGather(1, [][]byte{make([]byte, 600), make([]byte, 400)}, 100, 0)
	if !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("err = %v, want ErrOutOfBounds", err)
	}
	if link.Stats(fabric.DPUToHost).Transfers != 0 || host.RecvDepth() != 1 {
		t.Error("a refused post moved bytes or consumed a receive")
	}
}

package offload

import (
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dpurpc/internal/abi"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// Dispatch pin (b): on a reused handler goroutine only the first request can
// move the stack. The serial DPU path (handleCall → Scan → scanSimple → …) is
// deeper than a fresh 2 KiB goroutine stack has room for above its guard, so
// a goroutine per request pays runtime.newstack on every request the moment
// the path grows by one frame; a worker pays it once. The probe is a local of
// a handler wrapper — same call site every iteration, so its address changes
// only if the stack was copied.
func TestWorkerStackStaysPut(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC may shrink (move) an idle stack
	env := workload.NewEnv()
	ccfg, scfg := smallTestCfg()
	ccfg.BusyPoll, scfg.BusyPoll = false, false
	d, err := NewDeploymentWith(env.Table, (&benchImpl{env: env}).impls(), DeployConfig{Connections: 1, ClientCfg: ccfg, ServerCfg: scfg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stop := make(chan struct{})
	hostDone := make(chan struct{})
	go func() {
		defer close(hostDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.ProgressHost(); err != nil {
				return
			}
		}
	}()
	group := NewPollerGroup(d.DPUs, 1)
	group.Start()
	defer func() {
		group.Stop()
		close(stop)
		<-hostDone
	}()

	var mu sync.Mutex
	var probes []uintptr
	h := d.DPUs[0].XRPCHandler()
	srv := xrpc.NewAsyncServer(func(call *xrpc.Call) {
		var local byte
		mu.Lock()
		probes = append(probes, uintptr(unsafe.Pointer(&local)))
		mu.Unlock()
		h(call)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	cl, err := xrpc.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	payload := env.GenSmall(mt19937.New(1)).Marshal(nil)
	const calls = 100
	for i := 0; i < calls; i++ {
		if status, _, err := cl.Call("/benchpb.Bench/CallSmall", payload); err != nil || status != xrpc.StatusOK {
			t.Fatalf("call %d: status %d, err %v", i, status, err)
		}
	}
	if n := srv.Stats().WorkersSpawned; n != 1 {
		t.Fatalf("%d handler goroutines for depth-1 traffic", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(probes) != calls {
		t.Fatalf("%d probes", len(probes))
	}
	for i := 2; i < calls; i++ {
		if probes[i] != probes[1] {
			t.Fatalf("request %d ran at stack address %#x, request 1 at %#x: the stack moved on a reused worker", i, probes[i], probes[1])
		}
	}
	t.Logf("first request moved the stack: %v", probes[0] != probes[1])
}

// beginCounter is an xrpc.Observer that counts the calls handed to handlers.
type beginCounter struct{ n atomic.Int64 }

func (b *beginCounter) Begin(string, int)                               { b.n.Add(1) }
func (b *beginCounter) Replied(string, int, uint16, int, time.Duration) {}

// The DPU's xRPC handler scans, submits and returns: no handler goroutine
// waits for the host. With the host handler held, 256 calls in flight on one
// connection run on at most 64 handler goroutines, and all of them are
// answered once the host lets go.
func TestDPUHandlerDoesNotPark(t *testing.T) {
	table, reg := echoEnv(t)
	respDesc := reg.Message("echopb.Resp")
	hold := make(chan struct{})
	var held atomic.Int64
	impls := map[string]Impl{
		"echopb.Echo": {
			"Call": func(req abi.View) (*protomsg.Message, uint16) {
				held.Add(1)
				<-hold
				m := protomsg.New(respDesc)
				m.SetUint64("id", req.U64Name("id"))
				return m, 0
			},
		},
	}
	ccfg, scfg := smallTestCfg()
	d, err := NewDeploymentWith(table, impls, DeployConfig{Connections: 1, ClientCfg: ccfg, ServerCfg: scfg})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go d.DPUs[0].Run(stop)
	hostDone := make(chan struct{})
	go func() {
		defer close(hostDone)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := d.ProgressHost(); err != nil {
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		<-hostDone
		d.Close()
	}()

	srv := xrpc.NewAsyncServer(d.DPUs[0].XRPCHandler())
	var begun beginCounter
	srv.SetObserver(&begun)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	cl, err := xrpc.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	reqDesc := reg.Message("echopb.Req")
	const calls = 256
	var wg sync.WaitGroup
	var bad atomic.Int64
	for i := uint64(1); i <= calls; i++ {
		m := protomsg.New(reqDesc)
		m.SetUint64("id", i)
		wg.Add(1)
		id := i
		if err := cl.Go("/echopb.Echo/Call", m.Marshal(nil), func(status uint16, p []byte, err error) {
			defer wg.Done()
			got := protomsg.New(respDesc)
			if err != nil || status != xrpc.StatusOK || got.Unmarshal(p) != nil || got.Uint64("id") != id {
				bad.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for begun.n.Load() < calls || held.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls reached a handler, host held %d", begun.n.Load(), calls, held.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if n := srv.Stats().WorkersSpawned; n > 64 {
		t.Errorf("%d handler goroutines for %d calls waiting on the host", n, calls)
	} else {
		t.Logf("%d handler goroutines for %d calls waiting on the host", n, calls)
	}
	close(hold)
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d of %d calls failed once the host was released", bad.Load(), calls)
	}
}

// A released response buffer goes back to respBufPool only up to the
// request-frame pool's 1 MiB cap: one oversized response must not pin its
// capacity in the pool for the life of the process.
func TestRespBufPoolCapsCapacity(t *testing.T) {
	for i := 0; i < 64; i++ {
		big := getRespBuf()
		big.b = make([]byte, 0, maxPooledRespBuf+1)
		big.release()
		if rb := getRespBuf(); rb == big || cap(rb.b) > maxPooledRespBuf {
			t.Fatalf("getRespBuf returned a %d-byte buffer after an oversized release", cap(rb.b))
		}
	}
	if raceEnabled {
		return // -race drops pool puts at random; the rest needs them kept
	}
	// A buffer at the cap is still pooled (retried: a put and the next get
	// can land on different Ps).
	for i := 0; i < 64; i++ {
		rb := getRespBuf()
		rb.b = make([]byte, 0, maxPooledRespBuf)
		rb.release()
		if getRespBuf() == rb {
			return
		}
	}
	t.Error("a buffer at the cap never came back from the pool")
}

package offload

import (
	"net"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"dpurpc/internal/mt19937"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// A task a worker still holds — the worker may be inside Scan or buildInto on
// task.data, which is the transport's pooled request frame — must not finish:
// delivery is what lets the transport recycle the frame. Every path that gives
// up on requests takes them back from the workers first (reclaim), so the
// situation is built by hand, and finish refuses it loudly.
func TestReleaseNotBeforeWorkerHandsBack(t *testing.T) {
	env := workload.NewEnv()
	ccfg, scfg := smallTestCfg()
	d, err := NewDeploymentWith(env.Table, (&benchImpl{env: env}).impls(),
		DeployConfig{Connections: 1, ClientCfg: ccfg, ServerCfg: scfg, DPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dpu := d.DPUs[0]

	var delivered []callResult
	task := &callTask{deliver: func(r callResult) { delivered = append(delivered, r) }}
	// As queueWork leaves it: counted, flagged, on its way to a worker.
	dpu.onWorkers++
	task.onWorker = true
	func() {
		defer func() {
			if recover() == nil {
				t.Error("finish accepted a task a worker still holds")
			}
		}()
		dpu.failTask(task, ErrAdmissionShed)
	}()
	if len(delivered) != 0 {
		t.Fatal("result delivered while a worker still held the task")
	}

	dpu.reclaim(task)
	if dpu.onWorkers != 0 || task.onWorker {
		t.Fatalf("hand-back left onWorkers=%d onWorker=%v", dpu.onWorkers, task.onWorker)
	}
	dpu.failTask(task, ErrAdmissionShed)
	if len(delivered) != 1 || delivered[0].status != xrpc.StatusUnavailable || !delivered[0].err {
		t.Fatalf("after the hand-back: %+v", delivered)
	}
}

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
	d, err := NewDeployment(env.Table, (&benchImpl{env: env}).impls(), 1, ccfg, scfg)
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
	srv := xrpc.NewReleasingServer(func(method string, payload []byte) (uint16, []byte, func()) {
		var local byte
		mu.Lock()
		probes = append(probes, uintptr(unsafe.Pointer(&local)))
		mu.Unlock()
		return h(method, payload)
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

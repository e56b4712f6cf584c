package offload

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/xrpc"
)

// TestCacheSurvivesReconnect pins the cache's placement in the deployment:
// the response cache lives on the Deployment, not on any connection, so a
// killed-and-redialed connection keeps serving hits from the entries the
// old connection inserted. It also pins the epoch staleness guard: an
// insert whose task predates the current connection epoch is dropped — a
// response that raced a reconnect must not seed the cache.
func TestCacheSurvivesReconnect(t *testing.T) {
	table, reg := echoEnv(t)
	respDesc := reg.Message("echopb.Resp")
	impls := map[string]Impl{
		"echopb.Echo": {
			"Call": func(req abi.View) (*protomsg.Message, uint16) {
				m := protomsg.New(respDesc)
				m.SetUint64("id", req.U64Name("id"))
				m.SetString("data", string(req.StrName("data")))
				return m, 0
			},
		},
	}
	ccfg, scfg := smallTestCfg()
	d, err := NewDeploymentWith(table, impls, DeployConfig{
		Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
		RequestTimeout:  2 * time.Second,
		ReconnectBudget: 10,
		CacheMethods:    []string{"/echopb.Echo/Call"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Cache == nil {
		t.Fatal("deployment has no cache despite CacheMethods")
	}

	stop := make(chan struct{})
	var hostWG sync.WaitGroup
	hostWG.Add(1)
	go func() {
		defer hostWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := d.Poller.Progress()
			if err != nil && !errors.Is(err, rpcrdma.ErrConnBroken) {
				return
			}
			if n == 0 {
				runtime.Gosched()
			}
		}
	}()
	group := NewPollerGroup(d.DPUs, 1)
	group.Start()

	dpu := d.DPUs[0]
	h := dpu.XRPCHandler().Copying()
	reqDesc := reg.Message("echopb.Req")
	m := protomsg.New(reqDesc)
	m.SetUint64("id", 7)
	m.SetString("data", "cached-across-redials")
	payload := m.Marshal(nil)
	call := func() []byte {
		t.Helper()
		backoff := 100 * time.Microsecond
		for attempt := 0; attempt < 8; attempt++ {
			status, resp := h("/echopb.Echo/Call", payload)
			if status == xrpc.StatusOK {
				return resp
			}
			if status != xrpc.StatusUnavailable && status != xrpc.StatusDeadlineExceeded {
				t.Fatalf("call: status %d", status)
			}
			time.Sleep(backoff)
			backoff *= 2
		}
		t.Fatal("call never succeeded")
		return nil
	}

	// Miss + insert, then a hit on the same connection.
	first := call()
	second := call()
	if string(first) != string(second) {
		t.Fatalf("hit diverges from host response:\n want %x\n got  %x", first, second)
	}
	if hits := dpu.Stats().CacheHits; hits == 0 {
		t.Fatal("repeat call on the first connection did not hit")
	}
	hitsBefore := dpu.Stats().CacheHits

	// Kill the connection and wait for the replacement to be adopted.
	want := dpu.Stats().Reconnects + 1
	group.Kill(0)
	deadline := time.Now().Add(5 * time.Second)
	for dpu.Stats().Reconnects < want {
		if time.Now().After(deadline) {
			t.Fatalf("no reconnect (dead=%v err=%v)", group.Dead(0), group.Err(0))
		}
		time.Sleep(time.Millisecond)
	}

	// The replacement connection must serve the old connection's entry.
	third := call()
	if string(third) != string(first) {
		t.Fatalf("post-reconnect hit diverges:\n want %x\n got  %x", first, third)
	}
	if hits := dpu.Stats().CacheHits; hits <= hitsBefore {
		t.Fatalf("cache hits %d after reconnect, want > %d (entry lost on redial?)",
			hits, hitsBefore)
	}

	group.Stop()
	close(stop)
	hostWG.Wait()

	// White-box epoch guard (pollers stopped: d.epoch is safe to read). An
	// insert carried by a task from the previous epoch must be dropped...
	id, ok := dpu.procs.byName["/echopb.Echo/Call"]
	if !ok {
		t.Fatal("method missing from proc table")
	}
	e := dpu.procs.byID(id)
	lenBefore := d.Cache.Len()
	stale := &callTask{procID: id, entry: e, data: []byte("stale-key"), epoch: dpu.epoch - 1}
	dpu.cacheInsert(stale, callResult{status: xrpc.StatusOK, resp: []byte("stale-resp")})
	if d.Cache.Len() != lenBefore {
		t.Fatalf("stale-epoch insert landed: len %d -> %d", lenBefore, d.Cache.Len())
	}
	if _, _, hit := d.Cache.Get(id, []byte("stale-key")); hit {
		t.Fatal("stale-epoch insert is retrievable")
	}
	// ...while the same insert at the current epoch lands (the guard tests
	// the epoch, not something else).
	fresh := &callTask{procID: id, entry: e, data: []byte("fresh-key"), epoch: dpu.epoch}
	dpu.cacheInsert(fresh, callResult{status: xrpc.StatusOK, resp: []byte("fresh-resp")})
	if d.Cache.Len() != lenBefore+1 {
		t.Fatalf("current-epoch insert dropped: len %d -> %d", lenBefore, d.Cache.Len())
	}
}

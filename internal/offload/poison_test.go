package offload

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpurpc/internal/abi"
	"dpurpc/internal/fault"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/xrpc"
)

// poisonData is the request's string field: mostly small, every eighth one
// large enough for the scatter-gather path.
func poisonData(id uint64) string {
	n := int(id%97) * 2
	if id%8 == 0 {
		n = 4096 + int(id%13)*1000
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte('a' + byte((uint64(i)*31+id)%26))
	}
	return sb.String()
}

// TestPoisonOnRelease turns on the release-poisoning hook — every request
// frame and every response buffer is overwritten with 0xDB the moment it goes
// back to its pool — and drives each datapath mode through a real xrpc.Server
// with 64 requests in flight. Anything that still read a buffer after its
// owner let go would now read 0xDB: every OK response must be byte-identical
// to the response marshalled from scratch, every failure must be a typed
// transient status in a mode that injects failures, and the server must end
// with no frame unaccounted. Under -race this is also the synchronization pin
// of the frame hand-offs.
func TestPoisonOnRelease(t *testing.T) {
	xrpc.SetPoisonOnRelease(true)
	defer xrpc.SetPoisonOnRelease(false)
	flaky := fault.Plan{ErrorRate: 0.02, DelayRate: 0.02, Delay: 200 * time.Microsecond, Seed: 7}
	for _, mode := range []struct {
		name string
		cfg  DeployConfig
		// keys > 0 folds request IDs onto that many distinct requests.
		keys uint64
		// slowEvery > 0 makes the host handler of every such ID outlast
		// RequestTimeout; kill breaks the connection while the load runs.
		slowEvery uint64
		kill      bool
		check     func(t *testing.T, st DPUStats, typed uint64)
	}{
		{name: "serial"},
		{name: "workers2", cfg: DeployConfig{DPUWorkers: 2}},
		{name: "sg", cfg: DeployConfig{SGPayloadMin: 4096}},
		{name: "respser", cfg: DeployConfig{OffloadResponseSerialization: true}},
		{name: "sg_respser_workers2", cfg: DeployConfig{SGPayloadMin: 4096, OffloadResponseSerialization: true, DPUWorkers: 2}},
		{name: "cache", cfg: DeployConfig{CacheMethods: []string{"/echopb.Echo/Call"}}, keys: 24,
			check: func(t *testing.T, st DPUStats, _ uint64) {
				if st.CacheHits == 0 {
					t.Error("no cache hit")
				}
			}},
		{name: "timeout", cfg: DeployConfig{RequestTimeout: 40 * time.Millisecond}, slowEvery: 250,
			check: func(t *testing.T, _ DPUStats, typed uint64) {
				if typed == 0 {
					t.Error("no request was reaped")
				}
			}},
		{name: "reconnect", cfg: DeployConfig{DPUWorkers: 2, ClientFaults: &flaky, ServerFaults: &flaky,
			RequestTimeout: time.Second, ReconnectBudget: 10}, kill: true,
			check: func(t *testing.T, st DPUStats, _ uint64) {
				if st.Reconnects == 0 {
					t.Error("no reconnect")
				}
			}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			table, reg := echoEnv(t)
			reqDesc, respDesc := reg.Message("echopb.Req"), reg.Message("echopb.Resp")
			impls := map[string]Impl{"echopb.Echo": {"Call": func(req abi.View) (*protomsg.Message, uint16) {
				id := req.U64Name("id")
				if mode.slowEvery > 0 && id%mode.slowEvery == 0 {
					time.Sleep(3 * mode.cfg.RequestTimeout)
				}
				m := protomsg.New(respDesc)
				m.SetUint64("id", id)
				m.SetString("data", string(req.StrName("data")))
				return m, 0
			}}}
			cfg := mode.cfg
			cfg.Connections = 1
			cfg.ClientCfg, cfg.ServerCfg = smallTestCfg()
			cfg.ClientCfg.BusyPoll, cfg.ServerCfg.BusyPoll = false, false
			cfg.ClientCfg.WaitTimeout, cfg.ServerCfg.WaitTimeout = 100*time.Microsecond, 100*time.Microsecond
			d, err := NewDeploymentWith(table, impls, cfg)
			if err != nil {
				t.Fatal(err)
			}
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
					if _, err := d.ProgressHost(); err != nil && !errors.Is(err, rpcrdma.ErrConnBroken) {
						return
					}
				}
			}()
			group := NewPollerGroup(d.DPUs, 1)
			group.Start()

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := xrpc.NewAsyncServer(d.DPUs[0].XRPCHandler())
			go srv.Serve(ln)
			cl, err := xrpc.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}

			const depth, calls = 64, 1500
			tokens := make(chan struct{}, depth)
			for i := 0; i < depth; i++ {
				tokens <- struct{}{}
			}
			var ok, typed atomic.Uint64
			var wg sync.WaitGroup
			killed := make(chan struct{})
			if mode.kill {
				go func() {
					defer close(killed)
					for k := 0; k < 5; k++ {
						time.Sleep(3 * time.Millisecond)
						group.Kill(0)
					}
				}()
			} else {
				close(killed)
			}
			for i := uint64(1); i <= calls; i++ {
				id := i
				if mode.keys > 0 {
					id = i%mode.keys + 1
				}
				req := protomsg.New(reqDesc)
				req.SetUint64("id", id)
				req.SetString("data", poisonData(id))
				want := protomsg.New(respDesc)
				want.SetUint64("id", id)
				want.SetString("data", poisonData(id))
				wantBytes := want.Marshal(nil)
				<-tokens
				wg.Add(1)
				err := cl.Go("/echopb.Echo/Call", req.Marshal(nil), func(status uint16, p []byte, err error) {
					switch {
					case err != nil:
						t.Errorf("call %d: %v", id, err)
					case status == xrpc.StatusOK:
						if !bytes.Equal(p, wantBytes) {
							t.Errorf("call %d: response differs from the un-pooled bytes (%d vs %d bytes)", id, len(p), len(wantBytes))
						}
						ok.Add(1)
					case (mode.slowEvery > 0 || mode.kill) &&
						(status == xrpc.StatusUnavailable || status == xrpc.StatusDeadlineExceeded):
						typed.Add(1)
					default:
						t.Errorf("call %d: status %s: %q", id, xrpc.StatusText(status), p)
					}
					tokens <- struct{}{}
					wg.Done()
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(tokens) == 0 {
					if err := cl.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			<-killed
			cl.Close()
			srv.Close()
			deadline := time.Now().Add(10 * time.Second)
			for srv.Stats().FrameBytesInFlight != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d frame bytes still in flight after close", srv.Stats().FrameBytesInFlight)
				}
				time.Sleep(time.Millisecond)
			}
			stats := d.DPUs[0].Stats()
			group.Stop()
			close(stop)
			<-hostDone
			d.Close()

			if ok.Load() == 0 || ok.Load()+typed.Load() != calls {
				t.Errorf("%d ok + %d typed failures of %d calls", ok.Load(), typed.Load(), calls)
			}
			if n := srv.Stats().WorkersSpawned; n > depth {
				t.Errorf("%d handler goroutines for %d in flight", n, depth)
			}
			if mode.check != nil {
				mode.check(t, stats, typed.Load())
			}
		})
	}
}

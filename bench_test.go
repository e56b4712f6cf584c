// Benchmarks that execute the library on this machine (ns/op are
// machine-local; the paper's absolute numbers come from the modeled
// testbed, see cmd/dpurpc-bench). The modeled Fig. 8 and ablation numbers
// are pinned by the internal/harness tests, not reported here.
//
// BenchmarkDatapathAllocs is the Sec. VI-C5 reproduction: the offloaded
// host-side datapath performs zero heap allocations per request.
package dpurpc_test

import (
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"dpurpc/internal/abi"
	"dpurpc/internal/arena"
	"dpurpc/internal/deser"
	"dpurpc/internal/harness"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/offload"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// --- Fig. 7: single-message deserialization ---------------------------------

// benchDeser times the datapath's decode of one message: Scan, Fill and
// Release.
func benchDeser(b *testing.B, data []byte, lay *abi.Layout) {
	d := deser.New(deser.Options{ValidateUTF8: true})
	plan := deser.PlanFor(lay)
	notes, err := d.Scan(plan, data)
	if err != nil {
		b.Fatal(err)
	}
	bump := arena.NewBump(make([]byte, notes.Need()+deser.GuardBytes))
	notes.Release()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		notes, err := d.Scan(plan, data)
		if err != nil {
			b.Fatal(err)
		}
		bump.Reset()
		if _, err := d.Fill(plan, data, notes, bump, 0); err != nil {
			b.Fatal(err)
		}
		notes.Release()
	}
}

func BenchmarkFig7_IntArray(b *testing.B) {
	env := workload.NewEnv()
	for _, n := range []int{16, 128, 512, 4096} {
		b.Run(itoa(n), func(b *testing.B) {
			rng := mt19937.New(mt19937.DefaultSeed)
			benchDeser(b, env.GenInts(rng, n).Marshal(nil), env.IntsLay)
		})
	}
}

func BenchmarkFig7_CharArray(b *testing.B) {
	env := workload.NewEnv()
	for _, n := range []int{16, 128, 1024, 8000} {
		b.Run(itoa(n), func(b *testing.B) {
			rng := mt19937.New(mt19937.DefaultSeed)
			benchDeser(b, env.GenChars(rng, n).Marshal(nil), env.CharsLay)
		})
	}
}

// BenchmarkFig7_StandardUnmarshal contrasts the baseline one-copy
// deserializer (heap-allocating) with the arena path above.
func BenchmarkFig7_StandardUnmarshal(b *testing.B) {
	env := workload.NewEnv()
	rng := mt19937.New(mt19937.DefaultSeed)
	data := env.GenInts(rng, 512).Marshal(nil)
	out := protomsg.New(env.IntArray)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out.Clear()
		if err := out.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations ----------------------------------------------------------------

// BenchmarkAblationAllocator contrasts the offset-based dynamic allocator
// (the paper's VMA choice) with a ring buffer under an out-of-order
// completion trace — the Sec. IV-A design rationale. Head-of-line blocking
// shows up as the ring's stall fraction.
func BenchmarkAblationAllocator(b *testing.B) {
	for _, kind := range []string{"dynamic", "ringbuffer"} {
		b.Run(kind, func(b *testing.B) {
			cfg := arena.DefaultTraceConfig(b.N)
			var res arena.TraceResult
			var err error
			if kind == "dynamic" {
				a := arena.NewAllocator(cfg.Space)
				res, err = arena.RunOutOfOrderTrace(cfg, a.Alloc, a.Free, false)
			} else {
				r := arena.NewRing(cfg.Space)
				res, err = arena.RunOutOfOrderTrace(cfg, r.Alloc, r.Free, true)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stalls)/float64(b.N)*100, "stall-%")
		})
	}
}

// --- Sec. VI-C5: allocator behaviour -----------------------------------------

// BenchmarkDatapathAllocs measures heap allocations per request on the
// host-side offloaded datapath (the paper's zero-LLC-miss observation:
// "no use of the system allocator in the RPC datapath"). Expected: 0
// allocs/op in the handler and response path.
func BenchmarkDatapathAllocs(b *testing.B) {
	env := workload.NewEnv()
	rng := mt19937.New(mt19937.DefaultSeed)
	data := env.GenSmall(rng).Marshal(nil)
	lay := env.SmallLay

	// Deserialize once into a block, as the DPU would.
	d := deser.New(deser.Options{ValidateUTF8: true})
	plan := deser.PlanFor(lay)
	notes, err := d.Scan(plan, data)
	if err != nil {
		b.Fatal(err)
	}
	bump := arena.NewBump(make([]byte, notes.Need()))
	root, err := d.Fill(plan, data, notes, bump, 4096)
	notes.Release()
	if err != nil {
		b.Fatal(err)
	}
	region := &abi.Region{Buf: bump.Bytes(), Base: 4096}

	// The host-side work per request: build the view, read the fields the
	// business logic touches.
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := abi.MakeView(region, root, lay)
		sink += uint64(v.U32Name("id"))
		if v.BoolName("flag") {
			sink++
		}
	}
	_ = sink
}

// --- end-to-end wall-clock (this machine) ------------------------------------

// BenchmarkDatapath_EndToEnd measures real round trips through the full
// offloaded datapath (xRPC handler -> DPU deserialization -> RPC-over-RDMA
// -> host dispatch -> response), batched at the Table I concurrency.
func BenchmarkDatapath_EndToEnd(b *testing.B) {
	for _, s := range workload.Scenarios() {
		b.Run(strings.ReplaceAll(s.String(), " ", ""), func(b *testing.B) {
			opts := harness.DefaultOptions()
			env := workload.NewEnv()
			_ = env
			b.ReportAllocs()
			// Use the harness's offload runner once per benchmark
			// invocation sized to b.N.
			opts.Requests = b.N
			if opts.Requests < 64 {
				opts.Requests = 64
			}
			b.ResetTimer()
			row, err := harness.RunOffload(s, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(row.Result.RPS, "modeled-rps")
		})
	}
}

// BenchmarkResponseSerializationScaling sends the x8000-chars Echo payload
// back through the duplex pipeline (host build workers, the DPU poller
// serializing) with response-serialization offload on. Before timing, every
// width replays a fixed batch and each response — indexed by submission
// order, since completions are reordered — must be byte-identical (fnv64a
// digest) to the serial width. Reported: wall-clock ns/op on this machine.
func BenchmarkResponseSerializationScaling(b *testing.B) {
	env := workload.NewEnv()
	rng := mt19937.New(mt19937.DefaultSeed)
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = env.GenChars(rng, workload.CharsCount).Marshal(nil)
	}
	method := xrpc.FullMethodName("benchpb.Bench", "Echo")
	empty := func(req abi.View) (*protomsg.Message, uint16) { return nil, 0 }
	impls := map[string]offload.Impl{
		"benchpb.Bench": {
			"CallSmall": empty, "CallInts": empty, "CallChars": empty, "EchoBlob": empty,
			"Echo": func(req abi.View) (*protomsg.Message, uint16) {
				out := protomsg.New(env.CharArray)
				out.SetString("data", string(req.StrName("data")))
				return out, 0
			},
		},
	}

	newDeployment := func(workers int) *offload.Deployment {
		ccfg := rpcrdma.DefaultClientConfig()
		scfg := rpcrdma.DefaultServerConfig()
		ccfg.BusyPoll, scfg.BusyPoll = true, true
		scfg.HostWorkers = workers
		d, err := offload.NewDeploymentWith(env.Table, impls, offload.DeployConfig{
			Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
			OffloadResponseSerialization: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	// drive submits n Echo calls; with sums != nil each response is digested
	// into its submission slot (completion order is nondeterministic under
	// the pipeline, the slot index is not).
	drive := func(b *testing.B, d *offload.Deployment, n int, sums []uint64) {
		b.Helper()
		submitted, completed, failed := 0, 0, 0
		for completed < n {
			for submitted < n && submitted-completed < rpcrdma.DefaultConcurrency {
				idx := submitted
				err := d.DPUs[0].SubmitLocal(method, payloads[idx%len(payloads)],
					func(status uint16, errFlag bool, resp []byte) {
						completed++
						if status != 0 || errFlag {
							failed++
						}
						if sums != nil {
							h := fnv.New64a()
							h.Write(resp)
							sums[idx] = h.Sum64()
						}
					})
				if err != nil {
					b.Fatal(err)
				}
				submitted++
			}
			if _, err := d.DPUs[0].Progress(); err != nil {
				b.Fatal(err)
			}
			if _, err := d.Poller.Progress(); err != nil {
				b.Fatal(err)
			}
		}
		if failed > 0 {
			b.Fatalf("%d failed calls", failed)
		}
	}
	const verifyCalls = 160
	digests := func(workers int) []uint64 {
		d := newDeployment(workers)
		defer d.Close()
		sums := make([]uint64, verifyCalls)
		drive(b, d, verifyCalls, sums)
		return sums
	}
	ref := digests(1)

	pipelined := runtime.GOMAXPROCS(0)
	if pipelined < 4 {
		pipelined = 4
	}
	for _, workers := range []int{1, pipelined} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			got := digests(workers)
			for i := range ref {
				if got[i] != ref[i] {
					b.Fatalf("response %d diverges from the poller-only response path", i)
				}
			}
			d := newDeployment(workers)
			defer d.Close()
			b.SetBytes(int64(len(payloads[0])))
			b.ResetTimer()
			drive(b, d, b.N, nil)
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

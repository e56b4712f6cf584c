package offload

import (
	"testing"
	"time"

	"dpurpc/internal/mt19937"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// Commit coalescing is rpcrdma's policy and the same for every worker count:
// 64 small calls submitted one per poller pass with CommitBatch 8 leave in
// eight blocks, each sealed because its batch filled, whether or not the DPU
// has workers. The long CommitFlushTimeout keeps a slow pass from sealing a
// batch by its timer instead.
func TestDPUCommitBatchSameForEveryWorkerCount(t *testing.T) {
	env := workload.NewEnv()
	rng := mt19937.New(3)
	const calls, batch = 64, 8
	var payloads [][]byte
	for i := 0; i < calls; i++ {
		payloads = append(payloads, env.GenSmall(rng).Marshal(nil))
	}
	for _, workers := range []int{0, 2} {
		impl := &benchImpl{env: env}
		ccfg, scfg := smallTestCfg()
		d, err := NewDeploymentWith(env.Table, impl.impls(), DeployConfig{
			Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
			DPUWorkers: workers, CommitBatch: batch, CommitFlushTimeout: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		dpu := d.DPUs[0]
		done := 0
		for _, p := range payloads {
			if err := dpu.SubmitLocal("/benchpb.Bench/CallSmall", p, func(status uint16, errFlag bool, resp []byte) {
				if status != xrpc.StatusOK || errFlag {
					t.Errorf("workers=%d: status %d (%s)", workers, status, resp)
				}
				done++
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := dpu.Progress(); err != nil {
				t.Fatal(err)
			}
		}
		if c := dpu.Client().Counters; c.BlocksSent != calls/batch || c.FlushBatch != calls/batch || c.FlushExplicit != 0 {
			t.Fatalf("workers=%d: %d blocks (%d batch, %d explicit seals), want %d batch seals and nothing else",
				workers, c.BlocksSent, c.FlushBatch, c.FlushExplicit, calls/batch)
		}
		pumpDeployment(t, d, func() bool { return done == calls })
		d.Close()
	}
}

package offload

import (
	"bytes"
	"testing"

	"dpurpc/internal/mt19937"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

// sgTestCfg sizes blocks and buffers for multi-KiB payloads.
func sgTestCfg() (rpcrdma.Config, rpcrdma.Config) {
	c := rpcrdma.Config{BlockSize: 512 << 10, Credits: 32, SBufSize: 4 << 20, CQDepth: 128, BusyPoll: true}
	return c, c
}

// TestSGPayloadEndToEnd drives Echo calls with payloads straddling the SG
// threshold through both response modes (host-serialized and object
// responses) and verifies byte-identical echoes, the
// SG wire counters, and that large payloads were reference-placed rather
// than copied through the object arena.
func TestSGPayloadEndToEnd(t *testing.T) {
	env := workload.NewEnv()
	const sgMin = 1024
	sizes := []int{16, 1000, sgMin - 1, sgMin, sgMin + 1, 4096, 64 << 10}
	sgCount := 0
	for _, n := range sizes {
		if n >= sgMin {
			sgCount++
		}
	}

	for _, tc := range []struct {
		name        string
		respObjects bool
	}{
		{"serial", false},
		{"serial-respobjects", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			impl := &benchImpl{env: env}
			ccfg, scfg := sgTestCfg()
			d, err := NewDeploymentWith(env.Table, impl.impls(), DeployConfig{
				Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
				OffloadResponseSerialization: tc.respObjects,
				SGPayloadMin:                 sgMin,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			dpu := d.DPUs[0]

			rng := mt19937.New(42)
			var reqs [][]byte
			for _, n := range sizes {
				reqs = append(reqs, env.GenChars(rng, n).Marshal(nil))
			}
			done := 0
			for i, req := range reqs {
				i, req := i, req
				err := dpu.SubmitLocal("/benchpb.Bench/Echo", req,
					func(status uint16, errFlag bool, resp []byte) {
						if status != xrpc.StatusOK || errFlag {
							t.Errorf("size %d: status %d", sizes[i], status)
						} else if !bytes.Equal(resp, req) {
							t.Errorf("size %d: echo diverged (%d resp bytes, want %d)",
								sizes[i], len(resp), len(req))
						}
						done++
					})
				if err != nil {
					t.Fatal(err)
				}
			}
			pumpDeployment(t, d, func() bool { return done == len(reqs) })

			c := dpu.Client().Counters
			if c.SGMessagesSent != uint64(sgCount) {
				t.Errorf("SGMessagesSent = %d, want %d", c.SGMessagesSent, sgCount)
			}
			if c.SGSegmentsSent != uint64(sgCount) {
				t.Errorf("SGSegmentsSent = %d, want %d", c.SGSegmentsSent, sgCount)
			}
			if c.SGBytesSent == 0 {
				t.Error("SGBytesSent = 0")
			}
			if tc.respObjects {
				// Host echoes the same large payloads back as SG responses.
				if c.SGMessagesReceived != uint64(sgCount) {
					t.Errorf("SGMessagesReceived = %d, want %d", c.SGMessagesReceived, sgCount)
				}
			} else if c.SGMessagesReceived != 0 {
				t.Errorf("SGMessagesReceived = %d on host-serialized responses", c.SGMessagesReceived)
			}

			// Every payload at or above the threshold rode as a reference
			// (its exact wire bytes), never through the object arena.
			st := dpu.Stats()
			var wantRef uint64
			for _, n := range sizes {
				if n >= sgMin {
					wantRef += uint64(n)
				}
			}
			if st.Deser.RefBytes != wantRef {
				t.Errorf("RefBytes = %d, want %d", st.Deser.RefBytes, wantRef)
			}
			if st.Deser.CopyBytes >= wantRef {
				t.Errorf("CopyBytes = %d: large payloads still copied inline", st.Deser.CopyBytes)
			}
		})
	}
}

// TestSGMatchesInlineBytes pins the SG path's correctness against the inline
// path: the same request batch with SG enabled and disabled must return
// byte-identical responses in the same order.
func TestSGMatchesInlineBytes(t *testing.T) {
	env := workload.NewEnv()
	rng := mt19937.New(11)
	var reqs [][]byte
	for i := 0; i < 40; i++ {
		n := 64 << (uint(i) % 9) // 64B .. 16KiB
		reqs = append(reqs, env.GenChars(rng, n+i).Marshal(nil))
	}

	run := func(sgMin int) [][]byte {
		impl := &benchImpl{env: env}
		ccfg, scfg := sgTestCfg()
		d, err := NewDeploymentWith(env.Table, impl.impls(), DeployConfig{
			Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
			SGPayloadMin: sgMin,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		dpu := d.DPUs[0]
		got := make([][]byte, len(reqs))
		done := 0
		for i, req := range reqs {
			i := i
			err := dpu.SubmitLocal("/benchpb.Bench/Echo", req,
				func(status uint16, errFlag bool, resp []byte) {
					if status != xrpc.StatusOK || errFlag {
						t.Errorf("req %d: status %d", i, status)
					}
					got[i] = append([]byte(nil), resp...)
					done++
				})
			if err != nil {
				t.Fatal(err)
			}
		}
		pumpDeployment(t, d, func() bool { return done == len(reqs) })
		return got
	}

	inline := run(0)
	sg := run(1024)
	for i := range reqs {
		if !bytes.Equal(inline[i], sg[i]) {
			t.Fatalf("response %d diverges between inline and SG paths", i)
		}
	}
}

// TestSGOversizedBlockPayload pins the interplay of SG framing with the
// protocol's dedicated single-message blocks: an SG message larger than
// BlockSize gets its own oversized block (Sec. IV) and still round-trips
// with an intact descriptor table.
func TestSGOversizedBlockPayload(t *testing.T) {
	env := workload.NewEnv()
	impl := &benchImpl{env: env}
	ccfg, scfg := sgTestCfg()
	ccfg.BlockSize, scfg.BlockSize = 8192, 8192
	d, err := NewDeploymentWith(env.Table, impl.impls(), DeployConfig{
		Connections: 1, ClientCfg: ccfg, ServerCfg: scfg,
		SGPayloadMin: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dpu := d.DPUs[0]

	rng := mt19937.New(3)
	req := env.GenChars(rng, 32<<10).Marshal(nil) // 32 KiB payload, 8 KiB blocks
	done := false
	err = dpu.SubmitLocal("/benchpb.Bench/Echo", req,
		func(status uint16, errFlag bool, resp []byte) {
			if status != xrpc.StatusOK || errFlag {
				t.Errorf("oversized SG call: status %d errFlag %v", status, errFlag)
			} else if !bytes.Equal(resp, req) {
				t.Error("oversized SG echo diverged")
			}
			done = true
		})
	if err != nil {
		t.Fatal(err)
	}
	pumpDeployment(t, d, func() bool { return done })
	if c := dpu.Client().Counters; c.SGMessagesSent != 1 {
		t.Errorf("SGMessagesSent = %d, want 1", c.SGMessagesSent)
	}
}

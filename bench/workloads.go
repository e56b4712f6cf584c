package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"dpurpc"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/workload"
	"dpurpc/internal/xrpc"
)

const benchService = "benchpb.Bench"

// workloadDef is one traffic mix. The names and shapes are fixed: later
// issues cite them.
type workloadDef struct {
	Name string
	// Why is the reason the workload exists (also in BENCHMARK.json).
	Why    string
	Method string
	// Conns x Depth is the closed-loop load: Conns connections, each with
	// Depth requests in flight.
	Conns, Depth int
	Opts         dpurpc.StackOptions
	// Distinct is how many payloads are generated from the seed and cycled.
	Distinct int
	Gen      func(env *workload.Env, rng *mt19937.Source) *protomsg.Message
	// Echo marks a workload whose response carries the request's bytes back.
	Echo bool
	// Scenario is the cost-model scenario with the same message, if any.
	Scenario *workload.Scenario
}

var scenarioSmall = workload.ScenarioSmall

// workloads lists the four gated workloads in visiting order. The depths
// are the ones that repeated in calibration (README.md, "Load shape"): one
// deep connection with about half a core to spare for the Small workloads,
// and a cleanly timer-bound 2 x 16 for the large messages.
var workloads = []workloadDef{
	{
		Name:   "small_serial",
		Why:    "15 B CallSmall on the serial DPU path, 1 conn x 512: per-message overhead of xrpc, offload and rpcrdma does all the work",
		Method: "CallSmall", Conns: 1, Depth: 512, Distinct: 1024,
		Gen:      func(env *workload.Env, rng *mt19937.Source) *protomsg.Message { return env.GenSmall(rng) },
		Scenario: &scenarioSmall,
	},
	{
		Name:   "small_pooled",
		Why:    "same traffic with DPUWorkers=2: the pooled reserve/scan/fill/commit path, the control for folding serial into the pipeline",
		Method: "CallSmall", Conns: 1, Depth: 512, Distinct: 1024,
		Opts:     dpurpc.StackOptions{DPUWorkers: 2},
		Gen:      func(env *workload.Env, rng *mt19937.Source) *protomsg.Message { return env.GenSmall(rng) },
		Scenario: &scenarioSmall,
	},
	{
		Name:   "ints_decode",
		Why:    "CallInts with 4096 varints (11.5 KB wire, 16 KiB object), 2 conn x 16: deser scan+fill is most of the CPU",
		Method: "CallInts", Conns: 2, Depth: 16, Distinct: 64,
		Gen: func(env *workload.Env, rng *mt19937.Source) *protomsg.Message { return env.GenInts(rng, 4096) },
	},
	{
		Name:   "blob_echo",
		Why:    "64 KiB EchoBlob with SG payloads and response serialization offload, 2 conn x 16: bytes flow both ways through arena, SG framing, objconv",
		Method: "EchoBlob", Conns: 2, Depth: 16, Distinct: 16,
		Opts: dpurpc.StackOptions{SGPayloadMin: 4096, OffloadResponseSerialization: true},
		Gen:  func(env *workload.Env, rng *mt19937.Source) *protomsg.Message { return env.GenBlob(rng, 64<<10) },
		Echo: true,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// selectWorkloads resolves a comma-separated -workload value; empty selects
// all four.
func selectWorkloads(list string) ([]workloadDef, error) {
	if list == "" {
		return workloads, nil
	}
	var out []workloadDef
	for _, name := range strings.Split(list, ",") {
		w, ok := workloadByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

func (w workloadDef) fullMethod() string { return xrpc.FullMethodName(benchService, w.Method) }

// optionsString echoes the stack options that differ from the defaults.
func (w workloadDef) optionsString() string {
	var parts []string
	if w.Opts.DPUWorkers > 0 {
		parts = append(parts, fmt.Sprintf("DPUWorkers=%d", w.Opts.DPUWorkers))
	}
	if w.Opts.SGPayloadMin > 0 {
		parts = append(parts, fmt.Sprintf("SGPayloadMin=%d", w.Opts.SGPayloadMin))
	}
	if w.Opts.OffloadResponseSerialization {
		parts = append(parts, "OffloadResponseSerialization")
	}
	if len(parts) == 0 {
		return "default StackOptions"
	}
	return strings.Join(parts, " ")
}

// payload is one pre-generated request: the message, its wire bytes (all the
// stack ever sees) and, for echo workloads, the bytes the response must
// carry back.
type payload struct {
	msg  *protomsg.Message
	wire []byte
	echo []byte
}

// genPayloads makes the workload's inputs from the seed, before any timing.
func genPayloads(w workloadDef, env *workload.Env, seed uint32) ([]payload, error) {
	rng := mt19937.New(seed)
	out := make([]payload, w.Distinct)
	for i := range out {
		m := w.Gen(env, rng)
		p := payload{msg: m, wire: m.Marshal(nil)}
		if w.Echo {
			data, err := blobData(p.wire)
			if err != nil {
				return nil, fmt.Errorf("%s: generated payload %d: %w", w.Name, i, err)
			}
			p.echo = data
		}
		out[i] = p
	}
	return out, nil
}

// blobData decodes a serialized benchpb.Blob without allocating: exactly one
// length-delimited field 1 (or nothing, for empty data).
func blobData(wire []byte) ([]byte, error) {
	if len(wire) == 0 {
		return nil, nil
	}
	if wire[0] != 1<<3|2 {
		return nil, fmt.Errorf("blob: tag %#x, want field 1 bytes", wire[0])
	}
	n, w := binary.Uvarint(wire[1:])
	if w <= 0 || uint64(len(wire)-1-w) != n {
		return nil, fmt.Errorf("blob: length %d does not match %d remaining bytes", n, len(wire)-1-w)
	}
	return wire[1+w:], nil
}

// check verifies one response against the request that caused it: OK status,
// an empty payload for the Call* methods, and for EchoBlob a Blob whose data
// equals the request's, all of it.
func (p *payload) check(echo bool, status uint16, resp []byte, err error) bool {
	if err != nil || status != xrpc.StatusOK {
		return false
	}
	if !echo {
		return len(resp) == 0
	}
	data, derr := blobData(resp)
	return derr == nil && bytes.Equal(data, p.echo)
}

// benchImpls is the host-side business logic: empty, as in the paper's
// evaluation, except EchoBlob, which returns its request's bytes.
func benchImpls(schema *dpurpc.Schema) map[string]dpurpc.Impl {
	empty := func(req dpurpc.View) (*dpurpc.Message, uint16) { return nil, 0 }
	return map[string]dpurpc.Impl{
		benchService: {
			"CallSmall": empty, "CallInts": empty, "CallChars": empty, "Echo": empty,
			"EchoBlob": func(req dpurpc.View) (*dpurpc.Message, uint16) {
				out := schema.NewMessage("benchpb.Blob")
				if err := out.SetBytes("data", req.StrName("data")); err != nil {
					return nil, xrpc.StatusInternal
				}
				return out, 0
			},
		},
	}
}

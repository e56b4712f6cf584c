package dpurpc_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"dpurpc"
	"dpurpc/internal/arena"
	"dpurpc/internal/deser"
	"dpurpc/internal/metrics"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/wire"
	"dpurpc/internal/xrpc"
)

// The xRPC front end's bounds are exported through RegisterGauges on both
// kinds of stack, and the frame gauge is back at zero once the connections
// are gone.
func TestFrontEndFrameGauges(t *testing.T) {
	for name, newStack := range map[string]func(*dpurpc.Schema, map[string]dpurpc.Impl, dpurpc.StackOptions) (*dpurpc.Stack, error){
		"offloaded": dpurpc.NewOffloadedStack,
		"baseline":  dpurpc.NewBaselineStack,
	} {
		t.Run(name, func(t *testing.T) {
			schema, err := dpurpc.ParseSchema("greeter.proto", greeterProto)
			if err != nil {
				t.Fatal(err)
			}
			stack, err := newStack(schema, greeterImpls(t, schema), dpurpc.StackOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer stack.Close()
			smp := metrics.NewSampler(time.Hour, 4, nil) // sampled by hand
			stack.RegisterGauges(smp)
			addr, err := stack.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			cl, err := dpurpc.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			req := schema.NewMessage("demo.HelloRequest")
			req.SetString("name", "gauge")
			for i := 0; i < 20; i++ {
				if _, err := cl.Call(schema, "demo.Greeter", "Hello", req); err != nil {
					t.Fatal(err)
				}
			}
			cl.Close()
			last := func(key string) float64 {
				t.Helper()
				smp.SampleOnce()
				s := smp.Series()[key]
				if len(s) == 0 {
					t.Fatalf("gauge %s not registered (have %v)", key, smp.SeriesKeys())
				}
				return s[len(s)-1].V
			}
			for _, key := range []string{"rpc_conn_bytes_capped_total", "rpc_conn_idle_closed_total"} {
				if v := last(key); v != 0 {
					t.Errorf("%s = %v on a connection that was neither capped nor idle", key, v)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for last("xrpc_frame_bytes_in_flight") != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("xrpc_frame_bytes_in_flight = %v with every connection closed", last("xrpc_frame_bytes_in_flight"))
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// Stack.Handler keeps its two-result signature by copying a pooled response
// out before releasing it: with released buffers poisoned, earlier responses
// must survive later calls.
func TestHandlerCopiesBeforeRelease(t *testing.T) {
	arena.SetPoisonOnRelease(true)
	defer arena.SetPoisonOnRelease(false)
	for _, opts := range []dpurpc.StackOptions{
		{},
		{OffloadResponseSerialization: true},
		{ServerCfg: dpurpc.Config{HostWorkers: 2}, OffloadResponseSerialization: true},
	} {
		schema, err := dpurpc.ParseSchema("greeter.proto", greeterProto)
		if err != nil {
			t.Fatal(err)
		}
		stack, err := dpurpc.NewOffloadedStack(schema, greeterImpls(t, schema), opts)
		if err != nil {
			t.Fatal(err)
		}
		call := stack.Handler()
		var kept [][]byte
		for i := 0; i < 50; i++ {
			req := schema.NewMessage("demo.HelloRequest")
			req.SetString("name", "n")
			req.SetUint32("times", uint32(i))
			status, resp := call("/demo.Greeter/Hello", req.Marshal(nil))
			if status != 0 {
				t.Fatalf("%+v call %d: status %d", opts, i, status)
			}
			kept = append(kept, resp)
		}
		for i, resp := range kept {
			out := schema.NewMessage("demo.HelloReply")
			if err := out.Unmarshal(resp); err != nil || out.GetString("text") != "hello n" || len(out.Nums("echoes")) != i {
				t.Fatalf("%+v: response %d did not survive later calls (err %v)", opts, i, err)
			}
		}
		stack.Close()
	}
}

// A business handler that panics answers that one call INTERNAL; the process,
// the connection and the next call on it carry on, and the panic is counted.
func TestHandlerPanicAnswersInternal(t *testing.T) {
	offloaded := func(opts dpurpc.StackOptions) func(*dpurpc.Schema, map[string]dpurpc.Impl, dpurpc.StackOptions) (*dpurpc.Stack, error) {
		return func(s *dpurpc.Schema, impls map[string]dpurpc.Impl, _ dpurpc.StackOptions) (*dpurpc.Stack, error) {
			return dpurpc.NewOffloadedStack(s, impls, opts)
		}
	}
	for _, tc := range []struct {
		name     string
		newStack func(*dpurpc.Schema, map[string]dpurpc.Impl, dpurpc.StackOptions) (*dpurpc.Stack, error)
	}{
		{"host_workers_0", offloaded(dpurpc.StackOptions{})},
		{"host_workers_2", offloaded(dpurpc.StackOptions{ServerCfg: dpurpc.Config{HostWorkers: 2}})},
		{"baseline", dpurpc.NewBaselineStack},
	} {
		t.Run(tc.name, func(t *testing.T) {
			schema, err := dpurpc.ParseSchema("greeter.proto", greeterProto)
			if err != nil {
				t.Fatal(err)
			}
			impls := greeterImpls(t, schema)
			hello := impls["demo.Greeter"]["Hello"]
			impls["demo.Greeter"]["Hello"] = func(req dpurpc.View) (*dpurpc.Message, uint16) {
				if string(req.StrName("name")) == "boom" {
					panic("handler bug")
				}
				return hello(req)
			}
			stack, err := tc.newStack(schema, impls, dpurpc.StackOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer stack.Close()
			smp := metrics.NewSampler(time.Hour, 4, nil) // sampled by hand
			stack.RegisterGauges(smp)
			addr, err := stack.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			cl, err := dpurpc.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			call := func(name string) (uint16, []byte) {
				t.Helper()
				req := schema.NewMessage("demo.HelloRequest")
				req.SetString("name", name)
				status, resp, err := cl.Raw().Call("/demo.Greeter/Hello", req.Marshal(nil))
				if err != nil {
					t.Fatalf("call %q: %v", name, err)
				}
				return status, resp
			}
			if status, _ := call("boom"); status != xrpc.StatusInternal {
				t.Fatalf("panicking handler: status %d, want INTERNAL (%d)", status, xrpc.StatusInternal)
			}
			status, resp := call("after")
			out := schema.NewMessage("demo.HelloReply")
			if status != xrpc.StatusOK || out.Unmarshal(resp) != nil || out.GetString("text") != "hello after" {
				t.Fatalf("call after the panic: status %d, reply %q", status, out.GetString("text"))
			}
			smp.SampleOnce()
			s := smp.Series()["host_handler_panics_total"]
			if len(s) == 0 || s[len(s)-1].V != 1 {
				t.Fatalf("host_handler_panics_total = %v, want 1", s)
			}
		})
	}
}

// The per-method series come from the xRPC server's reply observer, on both
// kinds of stack: requests, errors, request and response bytes are counted
// per method, the in-flight gauge is back at zero, and the front end's
// replies and the flushes that carried them are exported.
func TestReplyObserverMetrics(t *testing.T) {
	for name, newStack := range map[string]func(*dpurpc.Schema, map[string]dpurpc.Impl, dpurpc.StackOptions) (*dpurpc.Stack, error){
		"offloaded": dpurpc.NewOffloadedStack,
		"baseline":  dpurpc.NewBaselineStack,
	} {
		t.Run(name, func(t *testing.T) {
			schema, err := dpurpc.ParseSchema("greeter.proto", greeterProto)
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			stack, err := newStack(schema, greeterImpls(t, schema), dpurpc.StackOptions{Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer stack.Close()
			smp := metrics.NewSampler(time.Hour, 4, nil) // sampled by hand
			stack.RegisterGauges(smp)
			addr, err := stack.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			cl, err := dpurpc.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			const hello, unknown = "/demo.Greeter/Hello", "/demo.Greeter/Nope"
			type want struct{ requests, errors, reqBytes, respBytes uint64 }
			wants := map[string]*want{hello: {}, unknown: {}}
			call := func(method string, payload []byte) {
				t.Helper()
				status, resp, err := cl.Raw().Call(method, payload)
				if err != nil {
					t.Fatal(err)
				}
				w := wants[method]
				w.requests++
				w.reqBytes += uint64(len(payload))
				w.respBytes += uint64(len(resp))
				if status != xrpc.StatusOK {
					w.errors++
				}
			}
			for i := 0; i < 20; i++ {
				req := schema.NewMessage("demo.HelloRequest")
				req.SetString("name", "metrics")
				req.SetUint32("times", uint32(i))
				call(hello, req.Marshal(nil))
			}
			for i := 0; i < 3; i++ {
				call(hello, []byte{0xff, 0xff}) // a truncated tag: INVALID_ARGUMENT
				call(unknown, []byte("x"))
			}
			if wants[hello].errors != 3 || wants[unknown].errors != 3 {
				t.Fatalf("client saw %d and %d failed calls, want 3 and 3", wants[hello].errors, wants[unknown].errors)
			}
			for method, w := range wants {
				l := map[string]string{"method": method}
				for _, c := range []struct {
					series string
					want   uint64
				}{
					{"rpc_requests_total", w.requests},
					{"rpc_errors_total", w.errors},
					{"rpc_request_bytes_total", w.reqBytes},
					{"rpc_response_bytes_total", w.respBytes},
				} {
					if got := reg.Counter(c.series, "", l).Value(); got != c.want {
						t.Errorf("%s{method=%q} = %d, want %d", c.series, method, got, c.want)
					}
				}
			}
			if v := reg.Gauge("rpc_inflight", "", nil).Value(); v != 0 {
				t.Errorf("rpc_inflight = %v with every call answered", v)
			}
			smp.SampleOnce()
			series := smp.Series()
			last := func(key string) float64 {
				s := series[key]
				if len(s) == 0 {
					t.Fatalf("gauge %s not registered", key)
				}
				return s[len(s)-1].V
			}
			if got := last("xrpc_requests_total"); got != 26 {
				t.Errorf("xrpc_requests_total = %v, want 26", got)
			}
			if got := last("xrpc_response_flushes_total"); got < 1 || got > 26 {
				t.Errorf("xrpc_response_flushes_total = %v for 26 depth-1 calls", got)
			}
		})
	}
}

// Both stacks export which packed-varint decoder the process runs.
func TestVarintKernelGauge(t *testing.T) {
	for name, newStack := range map[string]func(*dpurpc.Schema, map[string]dpurpc.Impl, dpurpc.StackOptions) (*dpurpc.Stack, error){
		"offloaded": dpurpc.NewOffloadedStack,
		"baseline":  dpurpc.NewBaselineStack,
	} {
		t.Run(name, func(t *testing.T) {
			schema, err := dpurpc.ParseSchema("greeter.proto", greeterProto)
			if err != nil {
				t.Fatal(err)
			}
			stack, err := newStack(schema, greeterImpls(t, schema), dpurpc.StackOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer stack.Close()
			smp := metrics.NewSampler(time.Hour, 4, nil) // sampled by hand
			stack.RegisterGauges(smp)
			smp.SampleOnce()
			key := `deser_varint_kernel_info{kernel="` + deser.Kernel() + `"}`
			s := smp.Series()[key]
			if len(s) == 0 || s[len(s)-1].V != 1 {
				t.Fatalf("%s = %v, want 1 (have %v)", key, s, smp.SeriesKeys())
			}
			if k := deser.Kernel(); k != "avx512" && k != "bmi2" && k != "portable" {
				t.Fatalf("deser.Kernel() = %q", k)
			}
		})
	}
}

const intsProto = `
syntax = "proto3";
package ints;

message IntArray { repeated uint32 values = 1; }
message Empty {}

service Bench {
  rpc CallInts (IntArray) returns (Empty);
}
`

// A 15 MiB frame of one-byte uint32 varints decodes to 60 MiB, past any
// slot of the DPU's send buffer. The scan refuses it before decoding, so the
// call allocates less than 1.5x its wire size, and the client gets the send
// buffer's refusal: INTERNAL.
func TestOversizedPackedCallBounded(t *testing.T) {
	schema, err := dpurpc.ParseSchema("ints.proto", intsProto)
	if err != nil {
		t.Fatal(err)
	}
	impls := map[string]dpurpc.Impl{"ints.Bench": {
		"CallInts": func(dpurpc.View) (*dpurpc.Message, uint16) { return nil, 0 },
	}}
	stack, err := dpurpc.NewOffloadedStack(schema, impls, dpurpc.StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	addr, err := stack.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dpurpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const method = "/ints.Bench/CallInts"
	record := func(n int) []byte {
		return wire.AppendBytes(wire.AppendTag(nil, 1, wire.TypeBytes), bytes.Repeat([]byte{0x01}, n))
	}
	if status, _, err := cl.Raw().Call(method, record(4096)); err != nil || status != xrpc.StatusOK {
		t.Fatalf("small call: status %d, err %v", status, err)
	}
	payload := record(15<<20 - 8)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status, resp, err := cl.Raw().Call(method, payload)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if status != xrpc.StatusInternal || !bytes.Contains(resp, []byte("larger than send buffer")) {
		t.Fatalf("status %d (%q), want %d and the send buffer's refusal", status, resp, xrpc.StatusInternal)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) >= 1.5*float64(len(payload)) {
		t.Fatalf("the call allocated %d bytes for a %d-byte payload (want < 1.5x)", alloc, len(payload))
	}
}

// The same frame of unpacked 2-byte elements (tag, one-byte value) would
// take a 24-byte replay record each, 12x the frame, before the decoder knew
// the object cannot be placed. The scan counts the run and refuses it first,
// so the call allocates less than 1.5x its wire size, and the client gets
// the send buffer's refusal: INTERNAL.
func TestOversizedUnpackedCallBounded(t *testing.T) {
	schema, err := dpurpc.ParseSchema("ints.proto", intsProto)
	if err != nil {
		t.Fatal(err)
	}
	impls := map[string]dpurpc.Impl{"ints.Bench": {
		"CallInts": func(dpurpc.View) (*dpurpc.Message, uint16) { return nil, 0 },
	}}
	stack, err := dpurpc.NewOffloadedStack(schema, impls, dpurpc.StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	addr, err := stack.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dpurpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const method = "/ints.Bench/CallInts"
	elements := func(n int) []byte {
		return bytes.Repeat(wire.AppendVarint(wire.AppendTag(nil, 1, wire.TypeVarint), 1), n)
	}
	if status, _, err := cl.Raw().Call(method, elements(4096)); err != nil || status != xrpc.StatusOK {
		t.Fatalf("small call: status %d, err %v", status, err)
	}
	payload := elements(15 << 19)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status, resp, err := cl.Raw().Call(method, payload)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if status != xrpc.StatusInternal || !bytes.Contains(resp, []byte("larger than send buffer")) {
		t.Fatalf("status %d (%q), want %d and the send buffer's refusal", status, resp, xrpc.StatusInternal)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) >= 1.5*float64(len(payload)) {
		t.Fatalf("the call allocated %d bytes for a %d-byte payload (want < 1.5x)", alloc, len(payload))
	}
}

const singularProto = `
syntax = "proto3";
package single;

message Empty {}
message Req {
  uint32 n = 1;
  string s = 2;
  repeated Empty items = 3;
}

service Bench {
  rpc Call (Req) returns (Empty);
}
`

// A 15 MiB frame of one field repeated as 2-byte records (tag, empty value)
// would take a 24-byte replay record each before the decoder knew the
// request cannot be placed: a singular scalar and a singular string keep
// only the last value, and empty sub-messages take almost no arena. The
// scan bounds its replay records by the largest request object, so each
// call allocates less than 1.5x its wire size, and the client gets the send
// buffer's refusal: INTERNAL.
func TestOversizedSingularCallBounded(t *testing.T) {
	schema, err := dpurpc.ParseSchema("single.proto", singularProto)
	if err != nil {
		t.Fatal(err)
	}
	impls := map[string]dpurpc.Impl{"single.Bench": {
		"Call": func(dpurpc.View) (*dpurpc.Message, uint16) { return nil, 0 },
	}}
	stack, err := dpurpc.NewOffloadedStack(schema, impls, dpurpc.StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	addr, err := stack.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dpurpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const method = "/single.Bench/Call"
	for _, tc := range []struct {
		name   string
		record []byte
	}{
		{"scalar", wire.AppendVarint(wire.AppendTag(nil, 1, wire.TypeVarint), 1)},
		{"string", wire.AppendBytes(wire.AppendTag(nil, 2, wire.TypeBytes), nil)},
		{"message", wire.AppendBytes(wire.AppendTag(nil, 3, wire.TypeBytes), nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if status, _, err := cl.Raw().Call(method, bytes.Repeat(tc.record, 4096)); err != nil || status != xrpc.StatusOK {
				t.Fatalf("small call: status %d, err %v", status, err)
			}
			payload := bytes.Repeat(tc.record, 15<<19)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			status, resp, err := cl.Raw().Call(method, payload)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if status != xrpc.StatusInternal || !bytes.Contains(resp, []byte("larger than send buffer")) {
				t.Fatalf("status %d (%q), want %d and the send buffer's refusal", status, resp, xrpc.StatusInternal)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) >= 1.5*float64(len(payload)) {
				t.Fatalf("the call allocated %d bytes for a %d-byte payload (want < 1.5x)", alloc, len(payload))
			}
		})
	}
}

const bigProto = `
syntax = "proto3";
package big;

message Size { uint32 n = 1; }
message Blob { bytes data = 1; }

service Big {
  rpc Get (Size) returns (Blob);
}
`

// A host response of exactly the host send buffer's MaxPayload is served.
// One 8 bytes larger can never be placed: the client gets INTERNAL with the
// send buffer's refusal, not a stall or a broken connection, and the next
// call is served.
func TestOversizedResponseRefused(t *testing.T) {
	schema, err := dpurpc.ParseSchema("big.proto", bigProto)
	if err != nil {
		t.Fatal(err)
	}
	// Get returns a Blob whose encoding is n bytes: tag, 3-byte length, data
	// (for n of 2^14+4 to 2^21+3).
	impls := map[string]dpurpc.Impl{"big.Big": {
		"Get": func(req dpurpc.View) (*dpurpc.Message, uint16) {
			out := schema.NewMessage("big.Blob")
			out.SetBytes("data", make([]byte, int(req.U32Name("n"))-4))
			return out, 0
		},
	}}
	const sbuf = 1 << 18
	stack, err := dpurpc.NewOffloadedStack(schema, impls, dpurpc.StackOptions{ServerCfg: dpurpc.Config{SBufSize: sbuf}})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	addr, err := stack.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dpurpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// ServerConn.MaxPayload of the host's send buffer.
	limit := (sbuf - rpcrdma.BlockAlign - rpcrdma.PreambleSize - rpcrdma.HeaderSize) &^ 7
	get := func(n int) (uint16, []byte) {
		t.Helper()
		status, resp, err := cl.Raw().Call("/big.Big/Get", wire.AppendVarint(wire.AppendTag(nil, 1, wire.TypeVarint), uint64(n)))
		if err != nil {
			t.Fatalf("response of %d bytes: %v", n, err)
		}
		return status, resp
	}
	if status, resp := get(limit); status != xrpc.StatusOK || len(resp) != limit {
		t.Fatalf("response of MaxPayload = %d bytes: status %d, %d bytes", limit, status, len(resp))
	}
	if status, resp := get(limit + 8); status != xrpc.StatusInternal || !bytes.Contains(resp, []byte("larger than send buffer")) {
		t.Fatalf("response of MaxPayload+8 bytes: status %d (%.80q), want %d and the send buffer's refusal", status, resp, xrpc.StatusInternal)
	}
	if status, resp := get(1 << 15); status != xrpc.StatusOK || len(resp) != 1<<15 {
		t.Fatalf("call after the refusal: status %d, %d bytes", status, len(resp))
	}
}

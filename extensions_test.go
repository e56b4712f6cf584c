package dpurpc_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dpurpc"
)

// TestStackExtensionsEndToEnd runs the public API with both paper
// extensions enabled: response serialization on the DPU and background
// handler execution on the host duplex pool. Client-observable behaviour must match
// the default stack exactly.
func TestStackExtensionsEndToEnd(t *testing.T) {
	schema, err := dpurpc.ParseSchema("greeter.proto", greeterProto)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]dpurpc.StackOptions{
		"default":      {},
		"resp-offload": {OffloadResponseSerialization: true},
		"host-workers": {ServerCfg: dpurpc.Config{HostWorkers: 4}},
		"both":         {OffloadResponseSerialization: true, ServerCfg: dpurpc.Config{HostWorkers: 4}},
	}
	want := map[string]string{}
	for name, opts := range variants {
		stack, err := dpurpc.NewOffloadedStack(schema, greeterImpls(t, schema), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		addr, err := stack.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		client, err := dpurpc.Dial(addr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 10; i++ {
			req := schema.NewMessage("demo.HelloRequest")
			req.SetString("name", fmt.Sprintf("req-%d-%s", i, strings.Repeat("x", i*7)))
			req.SetUint32("times", uint32(i))
			resp, err := client.Call(schema, "demo.Greeter", "Hello", req)
			if err != nil {
				t.Fatalf("%s call %d: %v", name, i, err)
			}
			key := fmt.Sprintf("%d", i)
			got := resp.GetString("text") + fmt.Sprint(resp.Nums("echoes"))
			if prev, ok := want[key]; ok {
				if got != prev {
					t.Errorf("%s call %d diverges: %q vs %q", name, i, got, prev)
				}
			} else {
				want[key] = got
			}
		}
		client.Close()
		stack.Close()
	}
}

// TestStackServerCfgHostWorkers: the host duplex width is a per-side
// protocol knob, and ServerCfg.HostWorkers on the stack options must reach
// the host connection rather than be reset to the poller-only pipeline.
func TestStackServerCfgHostWorkers(t *testing.T) {
	schema, err := dpurpc.ParseSchema("greeter.proto", greeterProto)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := dpurpc.NewOffloadedStack(schema, greeterImpls(t, schema),
		dpurpc.StackOptions{ServerCfg: dpurpc.Config{HostWorkers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	call := stack.Handler()
	req := schema.NewMessage("demo.HelloRequest")
	req.SetString("name", "duplex")
	for i := 0; i < 8; i++ {
		if status, _ := call("/demo.Greeter/Hello", req.Marshal(nil)); status != 0 {
			t.Fatalf("call %d: status %d", i, status)
		}
	}
	stack.Close() // waits out the host pollers, which own the counters
	if n := stack.Deployment().HostConn(0).Counters.DuplexHandled; n == 0 {
		t.Fatal("ServerCfg.HostWorkers = 4 ran no handler on the duplex pool")
	}
}

// TestBackgroundStackSlowHandlerDoesNotBlock exercises the Sec. III-D
// motivation through the public API: one slow RPC, many fast ones, with
// handlers on the host duplex pool.
func TestBackgroundStackSlowHandlerDoesNotBlock(t *testing.T) {
	schema, err := dpurpc.ParseSchema("slow.proto", `
syntax = "proto3";
package sl;
message Req { bool slow = 1; }
message Rep { bool ok = 1; }
service S { rpc Do (Req) returns (Rep); }
`)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	impls := map[string]dpurpc.Impl{
		"sl.S": {
			"Do": func(req dpurpc.View) (*dpurpc.Message, uint16) {
				if req.BoolName("slow") {
					<-release
				}
				out := schema.NewMessage("sl.Rep")
				out.SetBool("ok", true)
				return out, 0
			},
		},
	}
	stack, err := dpurpc.NewOffloadedStack(schema, impls, dpurpc.StackOptions{ServerCfg: dpurpc.Config{HostWorkers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	addr, err := stack.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := dpurpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := dpurpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	slowDone := make(chan error, 1)
	go func() {
		req := schema.NewMessage("sl.Req")
		req.SetBool("slow", true)
		_, err := slow.Call(schema, "sl.S", "Do", req)
		slowDone <- err
	}()

	// Fast calls complete while the slow one is held.
	for i := 0; i < 10; i++ {
		req := schema.NewMessage("sl.Req")
		resp, err := fast.Call(schema, "sl.S", "Do", req)
		if err != nil || !resp.Bool("ok") {
			t.Fatalf("fast call %d: %v", i, err)
		}
	}
	select {
	case <-slowDone:
		t.Fatal("slow call finished before release")
	default:
	}
	close(release)
	select {
	case err := <-slowDone:
		if err != nil {
			t.Fatalf("slow call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow call never completed")
	}
}

// Package dpurpc is a Go implementation of "Protocol Buffer Deserialization
// DPU Offloading in the RPC Datapath" (SC 2024): an RPC stack in which the
// entire RPC server — including protobuf deserialization — runs on a DPU,
// while the application's business logic stays on the host and receives
// ready-built, zero-copy request objects through a shared address space.
//
// The package is a facade over the subsystems in internal/ (see DESIGN.md
// for the full inventory):
//
//   - Schema: proto3 parsing, descriptors, and the Accelerator Description
//     Table (ADT) that makes the DPU format-agnostic;
//   - OffloadedStack: the paper's deployment — an xRPC front end terminated
//     on the (simulated) DPU, RPC-over-RDMA to the host, handlers receiving
//     abi.View objects;
//   - BaselineStack: the conventional deployment used as the evaluation
//     baseline — the host terminates xRPC and deserializes on its own cores;
//   - Client: an xRPC client for either stack.
//
// A minimal offloaded service:
//
//	schema, _ := dpurpc.ParseSchema("greeter.proto", src)
//	stack, _ := dpurpc.NewOffloadedStack(schema, map[string]dpurpc.Impl{
//	    "demo.Greeter": {
//	        "Hello": func(req dpurpc.View) (*dpurpc.Message, uint16) {
//	            out := schema.NewMessage("demo.HelloReply")
//	            out.SetString("text", "hello "+string(req.StrName("name")))
//	            return out, 0
//	        },
//	    },
//	}, dpurpc.StackOptions{})
//	defer stack.Close()
//	addr, _ := stack.ListenAndServe("127.0.0.1:0")
//	c, _ := dpurpc.Dial(addr)
//	resp, _ := c.Call(schema, "demo.Greeter", "Hello", req)
package dpurpc

import (
	"fmt"

	"dpurpc/internal/abi"
	"dpurpc/internal/adt"
	"dpurpc/internal/fault"
	"dpurpc/internal/offload"
	"dpurpc/internal/protodesc"
	"dpurpc/internal/protodsl"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/xrpc"
)

// Message is a dynamic protobuf message (client-side requests and host-side
// responses).
type Message = protomsg.Message

// View is a zero-copy accessor over a deserialized request object in the
// shared region. Views are valid only during the handler invocation.
type View = abi.View

// Impl maps method names to handlers for one service, as registered on the
// host.
type Impl = offload.Impl

// Config tunes one side of an RPC-over-RDMA connection (Table I defaults
// apply to zero values).
type Config = rpcrdma.Config

// FaultPlan describes a deterministic fault-injection schedule for the
// simulated RDMA fabric (StackOptions.ClientFaults / ServerFaults). See
// internal/fault.
type FaultPlan = fault.Plan

// RetryPolicy governs Client.CallRetry: transparent retries of transient
// failures with exponential backoff and a token-bucket budget.
type RetryPolicy = xrpc.RetryPolicy

// Schema bundles the parsed proto3 types, the registry, and the ADT.
type Schema struct {
	Registry *protodesc.Registry
	Table    *adt.Table
}

// ParseSchema parses proto3 source and builds the ADT for it. filename is
// used in error messages only.
func ParseSchema(filename, source string) (*Schema, error) {
	f, err := protodsl.Parse(filename, source)
	if err != nil {
		return nil, err
	}
	reg := protodesc.NewRegistry()
	if err := reg.Register(f); err != nil {
		return nil, err
	}
	table, err := adt.Build(reg)
	if err != nil {
		return nil, err
	}
	return &Schema{Registry: reg, Table: table}, nil
}

// NewMessage returns an empty dynamic message of the named type.
func (s *Schema) NewMessage(fqName string) *Message {
	desc := s.Registry.Message(fqName)
	if desc == nil {
		panic(fmt.Sprintf("dpurpc: unknown message type %q", fqName))
	}
	return protomsg.New(desc)
}

// HasMessage reports whether the schema defines the named message type.
func (s *Schema) HasMessage(fqName string) bool {
	return s.Registry.Message(fqName) != nil
}

// EncodeADT serializes the Accelerator Description Table — the blob the
// host transmits to the DPU at startup.
func (s *Schema) EncodeADT() []byte { return s.Table.Encode() }

// ParseSchemaSet parses a multi-file proto3 schema: files maps import paths
// to source text, entry names the root file. All reachable types are
// registered and the ADT covers the full set.
func ParseSchemaSet(files map[string]string, entry string) (*Schema, error) {
	f, err := protodsl.ParseSet(files, entry)
	if err != nil {
		return nil, err
	}
	reg := protodesc.NewRegistry()
	if err := reg.Register(f); err != nil {
		return nil, err
	}
	table, err := adt.Build(reg)
	if err != nil {
		return nil, err
	}
	return &Schema{Registry: reg, Table: table}, nil
}

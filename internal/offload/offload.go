// Package offload assembles the paper's deployment (Fig. 1): the DPU
// terminates the xRPC (gRPC-style) client connections, deserializes request
// payloads in place into the shared address space, and forwards them over
// RPC-over-RDMA to the host, where a compatibility layer dispatches
// ready-built objects to the application's service handlers.
//
// As in the paper, only the *request* direction is offloaded: the host
// serializes responses itself (Sec. III-A: "our implementation for protobuf
// only offloads the request's deserialization and not the response's
// serialization"), and the DPU forwards the serialized response bytes to
// the xRPC client verbatim.
//
// The package also provides the evaluation baseline: a host-terminated
// xRPC server that runs the same custom arena deserializer on the host CPU
// (Sec. VI-A: "both the offloaded and the non-offloaded deserialization
// scenarios use our custom stack-based protobuf deserialization
// algorithm").
package offload

import (
	"fmt"
	"sync"

	"dpurpc/internal/abi"
	"dpurpc/internal/adt"
	"dpurpc/internal/deser"
	"dpurpc/internal/protomsg"
	"dpurpc/internal/xrpc"
)

// ViewHandler is a host-side service method implementation: it receives the
// request as a zero-copy view into the shared region and returns the
// response message (nil for an empty response) plus a status code. The view
// is valid only for the duration of the call.
type ViewHandler func(req abi.View) (*protomsg.Message, uint16)

// Impl maps method names to handlers for one service.
type Impl map[string]ViewHandler

// procEntry is the resolved dispatch record for one global procedure ID.
// plan is the request layout's compiled decode plan, built once here at
// stack build time so the datapath never compiles or looks plans up in the
// global cache under load.
type procEntry struct {
	fullName string // "/pkg.Service/Method"
	in       *abi.Layout
	out      *abi.Layout
	plan     *deser.Plan
	handler  ViewHandler
	// cache marks the method as idempotent and opted into the DPU-resident
	// response cache (DeployConfig.CacheMethods): repeated requests are served
	// from stored response bytes without scanning or crossing to the host.
	cache bool
}

// procTable assigns global procedure IDs across all services of an ADT
// table, deterministically (service order, then method order), so the host
// and DPU agree without transmitting names per request — the generated
// introspection mapping of Sec. V-D.
type procTable struct {
	entries []procEntry
	byName  map[string]uint16
}

func buildProcTable(table *adt.Table, impls map[string]Impl, needHandlers bool) (*procTable, error) {
	pt := &procTable{byName: make(map[string]uint16)}
	for _, svc := range table.Services {
		impl := impls[svc.Name]
		if impl == nil && needHandlers {
			return nil, fmt.Errorf("offload: service %s not implemented", svc.Name)
		}
		for _, m := range svc.Methods {
			in := table.ByID(m.InClass)
			out := table.ByID(m.OutClass)
			if in == nil || out == nil {
				return nil, fmt.Errorf("offload: service %s method %s: unknown classes", svc.Name, m.Name)
			}
			e := procEntry{
				fullName: xrpc.FullMethodName(svc.Name, m.Name),
				in:       in,
				out:      out,
				plan:     deser.PlanFor(in),
			}
			if impl != nil {
				h, ok := impl[m.Name]
				if !ok && needHandlers {
					return nil, fmt.Errorf("offload: service %s: method %s not implemented", svc.Name, m.Name)
				}
				e.handler = h
			}
			id := uint16(len(pt.entries))
			pt.byName[e.fullName] = id
			pt.entries = append(pt.entries, e)
		}
	}
	return pt, nil
}

// call runs the method's business handler. A handler that panics answers
// StatusInternal instead of taking the process — and every other connection
// — down with it; panicked reports that it did.
func (e *procEntry) call(view abi.View) (resp *protomsg.Message, status uint16, panicked bool) {
	defer func() {
		if recover() != nil {
			resp, status, panicked = nil, StatusInternal, true
		}
	}()
	resp, status = e.handler(view)
	return resp, status, false
}

func (pt *procTable) byID(id uint16) *procEntry {
	if int(id) >= len(pt.entries) {
		return nil
	}
	return &pt.entries[id]
}

// MethodNames returns every full method name of the table in procedure-ID
// order — the same deterministic (service order, then method order)
// assignment buildProcTable uses, so index i names procedure ID i. The
// response cache's per-method telemetry and Stack.InvalidateMethod resolve
// names through it.
func MethodNames(table *adt.Table) []string {
	var names []string
	for _, svc := range table.Services {
		for _, m := range svc.Methods {
			names = append(names, xrpc.FullMethodName(svc.Name, m.Name))
		}
	}
	return names
}

// scratch is a pooled per-call deserialization arena used by the baseline
// server (the offloaded path deserializes directly into protocol blocks and
// does not use it).
type scratch struct {
	buf []byte
	d   *deser.Deserializer
}

var scratchPool = sync.Pool{
	New: func() any {
		return &scratch{
			buf: make([]byte, 1<<20),
			d:   deser.New(deser.Options{ValidateUTF8: true}),
		}
	},
}

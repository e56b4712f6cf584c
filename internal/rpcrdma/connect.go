package rpcrdma

import (
	"errors"
	"fmt"
	"sync/atomic"

	"dpurpc/internal/fault"
	"dpurpc/internal/rdma"
)

// ErrPollerFull is returned when a poller's shared CQ cannot absorb another
// connection's worst-case inbound block count.
var ErrPollerFull = errors.New("rpcrdma: server poller CQ capacity exceeded")

// recvSlack is extra receive WRs posted beyond the peer's credit budget.
const recvSlack = 8

// Connect wires a client (DPU-side) and server (host-side) endpoint over a
// pair of RDMA devices, attaching the server end to poller. The receive
// buffer on each side mirrors the peer's send buffer, forming the
// per-direction shared address spaces of Sec. III-B.
func Connect(clientDev, serverDev *rdma.Device, ccfg, scfg Config, poller *ServerPoller, h Handler) (*ClientConn, *ServerConn, error) {
	ccfg.fillDefaults(true)
	scfg.fillDefaults(false)
	if h == nil {
		return nil, nil, errors.New("rpcrdma: nil handler")
	}
	// Under liveness rule (a) a single credit could never carry data.
	const creditRule = "rpcrdma: %s credits %d < 2: a block that acknowledges nothing may not take the last credit"
	if ccfg.Credits < 2 {
		return nil, nil, fmt.Errorf(creditRule, "client", ccfg.Credits)
	}
	if scfg.Credits < 2 {
		return nil, nil, fmt.Errorf(creditRule, "server", scfg.Credits)
	}
	// The client must be able to absorb every in-flight response block.
	if ccfg.CQDepth < scfg.Credits+recvSlack {
		return nil, nil, fmt.Errorf("rpcrdma: client CQ depth %d < server credits %d + slack",
			ccfg.CQDepth, scfg.Credits)
	}
	// The poller's shared CQ must absorb this client's in-flight blocks on
	// top of already-attached connections. This early check fails fast; the
	// authoritative (synchronized) admission happens in poller.attach below.
	needed := ccfg.Credits + recvSlack
	if poller.posted()+needed > poller.cfg.CQDepth {
		return nil, nil, fmt.Errorf("%w: need %d more, %d of %d in use",
			ErrPollerFull, needed, poller.posted(), poller.cfg.CQDepth)
	}

	clientPD := clientDev.AllocPD()
	serverPD := serverDev.AllocPD()

	clientSBuf := make([]byte, ccfg.SBufSize)
	serverSBuf := make([]byte, scfg.SBufSize)
	clientRBuf := clientPD.RegisterMR(make([]byte, scfg.SBufSize)) // mirrors server SBuf
	serverRBuf := serverPD.RegisterMR(make([]byte, ccfg.SBufSize)) // mirrors client SBuf

	clientSendCQ := rdma.NewCQ(ccfg.CQDepth)
	clientRecvCQ := rdma.NewCQ(ccfg.CQDepth)
	serverSendCQ := rdma.NewCQ(scfg.CQDepth)

	clientQP := clientPD.CreateQP(clientSendCQ, clientRecvCQ, clientRBuf)
	serverQP := serverPD.CreateQP(serverSendCQ, poller.recvCQ, serverRBuf)
	// The poller CQ outlives any one connection: closing this QP (teardown
	// or failure isolation) must not shut it down.
	serverQP.MarkSharedRecvCQ()
	rdma.Connect(clientQP, serverQP)

	cc, err := newClientConn(ccfg, clientQP, clientSendCQ, clientRecvCQ, clientSBuf, clientRBuf, scfg.Credits+recvSlack)
	if err != nil {
		return nil, nil, err
	}
	sc, err := newServerConn(scfg, serverQP, serverSendCQ, poller.recvCQ, serverSBuf, serverRBuf, h, needed)
	if err != nil {
		return nil, nil, err
	}
	// Fault injection (per side, outbound ops only). With both plans nil the
	// QPs carry no injector and the datapath is byte-identical to before.
	if ccfg.Faults != nil {
		cc.injector = fault.New(*ccfg.Faults)
		clientQP.SetInjector(cc.injector)
	}
	if scfg.Faults != nil {
		sc.injector = fault.New(*scfg.Faults)
		serverQP.SetInjector(sc.injector)
	}
	// Trace-ID propagation (out of band, Sec. IV-D): request IDs are never
	// transmitted — both sides replay the same free-then-allocate sequence —
	// so a table indexed by request ID, written by the client at send and
	// read by the server at dispatch, carries trace IDs across the
	// "boundary" without touching the wire format.
	if ccfg.Tracer != nil || scfg.Tracer != nil {
		tab := make([]atomic.Uint64, IDPoolSize)
		cc.traceTab = tab
		sc.traceTab = tab
	}
	if err := poller.attach(serverQP.Num, sc, needed); err != nil {
		clientQP.Close()
		serverQP.Close()
		return nil, nil, err
	}
	return cc, sc, nil
}

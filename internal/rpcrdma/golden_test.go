package rpcrdma

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dpurpc/internal/fault"
)

// The golden test pins the block protocol's wire bytes. Each schedule drives
// a fixed sequence of calls through one connection and records every block
// each side receives, in sequence order, as (bucket immediate, byte length,
// sha256 of the bytes). The records live in testdata/golden/<schedule>.txt;
// any change to block layout, seal timing, acknowledgment piggy-backing,
// request-ID binding or padding shows up as a diff there.
//
//	go test ./internal/rpcrdma -run TestGoldenBlocks -update
//
// rewrites them; a rewrite is a wire-format change and must be argued as one.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from this run")

// wireTap observes both receive buffers between event-loop steps. A block's
// bytes stay untouched in the receiver's buffer from delivery until the
// receiver has processed it (the sender reuses the memory only after the
// acknowledgment), and every preamble carries a fresh sequence number, so
// each delivery changes the preamble bytes at the block's bucket.
type wireTap struct {
	t    *testing.T
	r    *testRig
	dirs [2]tapDir
}

type tapDir struct {
	name  string
	buf   []byte
	snap  []byte // preamble bytes of every bucket at the last scan
	next  uint32 // next expected block sequence number
	lines []string
}

// newWireTap taps r's receive buffers. Connection buffers are recycled dirty
// (bufcache.go), so the tap fills all four of r's buffers with 0xDB first,
// the image of a recycled buffer under release poisoning: a byte the
// protocol transmits without writing it changes the record. A sender clears
// what an earlier connection left before its first use of it; with history
// the tap marks both send buffers as already used, so the 0xDB bytes stand
// for this connection's own earlier blocks, which no sender clears.
func newWireTap(t *testing.T, r *testRig, history bool) *wireTap {
	for _, b := range [][]byte{r.client.sbuf, r.server.sbuf, r.client.rbuf.Bytes(), r.server.rbuf.Bytes()} {
		for i := range b {
			b[i] = 0xDB
		}
	}
	if history {
		r.client.clean, r.server.clean = len(r.client.sbuf), len(r.server.sbuf)
	}
	g := &wireTap{t: t, r: r}
	g.dirs[0] = tapDir{name: "c2s", buf: r.server.rbuf.Bytes()}
	g.dirs[1] = tapDir{name: "s2c", buf: r.client.rbuf.Bytes()}
	for i := range g.dirs {
		d := &g.dirs[i]
		d.snap = make([]byte, len(d.buf)/BlockAlign*PreambleSize)
		d.copySnap()
	}
	return g
}

func (d *tapDir) copySnap() {
	for i := 0; i*PreambleSize < len(d.snap); i++ {
		copy(d.snap[i*PreambleSize:(i+1)*PreambleSize], d.buf[i*BlockAlign:])
	}
}

// scan records the blocks delivered since the last scan.
func (g *wireTap) scan() {
	g.t.Helper()
	for i := range g.dirs {
		d := &g.dirs[i]
		type rec struct {
			seq  uint32
			line string
		}
		var found []rec
		end := 0
		for b := 0; b*PreambleSize < len(d.snap); b++ {
			off := b * BlockAlign
			pre := d.buf[off : off+PreambleSize]
			if off < end || bytes.Equal(pre, d.snap[b*PreambleSize:(b+1)*PreambleSize]) {
				continue
			}
			n := int(binary.LittleEndian.Uint32(pre[4:8]))
			if n < PreambleSize || off+n > len(d.buf) {
				g.t.Fatalf("%s: bucket %d changed but holds no block (length %d)", d.name, b, n)
			}
			end = off + n
			found = append(found, rec{
				seq:  binary.LittleEndian.Uint32(pre[8:12]),
				line: fmt.Sprintf("%s imm=%d len=%d sha256=%x", d.name, b, n, sha256.Sum256(d.buf[off:end])),
			})
		}
		sort.Slice(found, func(a, b int) bool { return found[a].seq < found[b].seq })
		for _, f := range found {
			if f.seq != d.next {
				g.t.Fatalf("%s: observed block seq %d, expected %d (a delivery was missed)", d.name, f.seq, d.next)
			}
			d.next++
			d.lines = append(d.lines, f.line)
		}
		d.copySnap()
	}
}

// do runs one step of the schedule and records what it delivered.
func (g *wireTap) do(step func() error) {
	g.t.Helper()
	if err := step(); err != nil {
		g.t.Fatal(err)
	}
	g.scan()
}

func (g *wireTap) enqueue(spec CallSpec) { g.do(func() error { return g.r.client.Enqueue(spec) }) }
func (g *wireTap) flush()                { g.do(g.r.client.Flush) }
func (g *wireTap) clientPass()           { g.do(func() error { _, err := g.r.client.Progress(); return err }) }
func (g *wireTap) serverPass()           { g.do(func() error { _, err := g.r.poller.Progress(); return err }) }

// pump alternates the two event loops until the client has nothing
// outstanding.
func (g *wireTap) pump() {
	g.t.Helper()
	for pass := 0; g.r.client.Outstanding() > 0; pass++ {
		if pass == 100000 {
			g.t.Fatalf("stalled with %d outstanding", g.r.client.Outstanding())
		}
		g.clientPass()
		g.serverPass()
	}
}

// serverUntil runs the server poller until cond holds (duplex workers finish
// on their own goroutines).
func (g *wireTap) serverUntil(what string, cond func() bool) {
	g.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			g.t.Fatalf("server never reached: %s", what)
		}
		g.serverPass()
	}
}

// records returns the block records of both directions, one per line.
func (g *wireTap) records() string {
	var sb strings.Builder
	for _, d := range g.dirs {
		for _, l := range d.lines {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// check compares the records with testdata/golden/<name>.txt.
func (g *wireTap) check(name string) {
	g.t.Helper()
	got := g.records()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			g.t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			g.t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		g.t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var a, b string
			if i < len(gl) {
				a = gl[i]
			}
			if i < len(wl) {
				b = wl[i]
			}
			if a != b {
				g.t.Fatalf("%s: block record %d differs\n got: %s\nwant: %s", path, i, a, b)
			}
		}
	}
}

// goldenEcho echoes the request payload and method. It reserves 8 bytes more
// than it uses, so response tail slots shrink at commit.
func goldenEcho(req Request) ResponseSpec {
	payload := append([]byte(nil), req.Payload...)
	return ResponseSpec{
		Status: req.Method,
		Size:   len(payload) + 8,
		Build: func(dst []byte, _ uint64) (uint32, int, error) {
			return req.Root, copy(dst, payload), nil
		},
	}
}

// patterned returns a CallSpec whose payload bytes derive from i.
func patterned(i, size int, onResp func(Response)) CallSpec {
	return CallSpec{
		Method: uint16(i % 7),
		Size:   size,
		Build: func(dst []byte, _ uint64) (uint32, int, error) {
			for j := range dst {
				dst[j] = byte(i*31 + j)
			}
			return uint32(i), size, nil
		},
		OnResponse: onResp,
	}
}

func fill(dst []byte, seed int) {
	for j := range dst {
		dst[j] = byte(seed*17 + j)
	}
}

func nop(Response) {}

// goldenSchedules are the wire-byte pins: each drives one connection through
// a fixed schedule on a wire tap (newWireTap's history) and returns the tap
// holding the records to compare with testdata/golden/<file>.txt.
var goldenSchedules = []struct {
	name, file string
	run        func(t *testing.T, history bool) *wireTap
}{
	{"serial", "serial", func(t *testing.T, history bool) *wireTap {
		ccfg, scfg := smallCfg()
		g := newWireTap(t, newRig(t, ccfg, scfg, goldenEcho), history)
		for i := 0; i < 24; i++ {
			g.enqueue(patterned(i, 1+(i*5)%97, nop))
			g.flush()
			g.pump()
		}
		return g
	}},

	{"oversized", "oversized", func(t *testing.T, history bool) *wireTap {
		ccfg, scfg := smallCfg()
		g := newWireTap(t, newRig(t, ccfg, scfg, goldenEcho), history)
		for i, size := range []int{100, 6000, 100, 9000} {
			g.enqueue(patterned(i, size, nop))
		}
		g.flush()
		g.pump()
		return g
	}},

	{"sg", "sg", func(t *testing.T, history bool) *wireTap {
		ccfg, scfg := smallCfg()
		h := func(req Request) ResponseSpec {
			if !req.SG {
				return goldenEcho(req)
			}
			// Answer with one 40-byte segment behind an 8-byte object area.
			tbl := SGTableSize(1)
			size := tbl + 8 + alignUp(40)
			return ResponseSpec{
				Status: 1, Object: true, Size: size,
				SG: true, SGSegs: 1, SGBytes: 40,
				Build: func(dst []byte, _ uint64) (uint32, int, error) {
					PutSGTable(dst, []SGDesc{{Field: 2, Off: uint32(tbl + 8), Len: 40}})
					fill(dst[tbl:], len(req.Payload))
					return uint32(tbl), size, nil
				},
			}
		}
		g := newWireTap(t, newRig(t, ccfg, scfg, h), history)
		g.enqueue(patterned(0, 40, nop))
		g.enqueue(sgCallSpec(2, 96, 16, nop))
		g.enqueue(sgCallSpec(1, 300, 8, nop))
		g.flush()
		g.pump()
		return g
	}},

	{"cancel", "cancel", func(t *testing.T, history bool) *wireTap {
		ccfg, scfg := smallCfg()
		r := newRig(t, ccfg, scfg, goldenEcho)
		g := newWireTap(t, r, history)
		var rs []*Reservation
		for i := 0; i < 3; i++ {
			res, err := r.client.Reserve(uint16(i+1), 64, nop)
			if err != nil {
				t.Fatal(err)
			}
			fill(res.Dst, i)
			rs = append(rs, res)
		}
		r.client.Cancel(rs[1]) // interior: poisoned with CancelledMethod
		for _, i := range []int{0, 2} {
			if err := r.client.Commit(rs[i], 0, 64); err != nil {
				t.Fatal(err)
			}
		}
		tail, err := r.client.Reserve(4, 32, nop)
		if err != nil {
			t.Fatal(err)
		}
		fill(tail.Dst, 9)
		r.client.Cancel(tail) // tail: rolled back
		g.enqueue(patterned(5, 16, nop))
		g.flush()
		g.pump()
		return g
	}},

	{"short_interior_client", "short_interior_client", func(t *testing.T, history bool) *wireTap {
		ccfg, scfg := smallCfg()
		r := newRig(t, ccfg, scfg, goldenEcho)
		g := newWireTap(t, r, history)
		var rs []*Reservation
		for i, size := range []int{128, 64, 96} {
			res, err := r.client.Reserve(uint16(i), size, nop)
			if err != nil {
				t.Fatal(err)
			}
			fill(res.Dst, i+3)
			rs = append(rs, res)
		}
		for i, used := range []int{40, 64, 20} { // interior short, full, tail short
			if err := r.client.Commit(rs[i], 0, used); err != nil {
				t.Fatal(err)
			}
		}
		g.flush()
		g.pump()
		return g
	}},

	{"short_interior_server", "short_interior_server", func(t *testing.T, history bool) *wireTap {
		// The host's duplex pool, stepped by hand: three handlers finish in
		// order, so their slots are reserved 0, 1, 2; then build 0 uses
		// fewer bytes than reserved (interior short slot), build 1 fails
		// (interior error tombstone) and build 2 fills its slot.
		ccfg, scfg := smallCfg()
		scfg.HostWorkers = 2
		var hgate, bgate [3]chan struct{}
		for k := range hgate {
			hgate[k], bgate[k] = make(chan struct{}), make(chan struct{})
		}
		h := func(req Request) ResponseSpec {
			k := int(req.Payload[0])
			<-hgate[k]
			return ResponseSpec{
				Status: uint16(k), Size: 64,
				Build: func(dst []byte, _ uint64) (uint32, int, error) {
					<-bgate[k]
					if k == 1 {
						return 0, 0, errors.New("build failed")
					}
					fill(dst, k)
					return 0, []int{24, 0, 64}[k], nil
				},
			}
		}
		r := newRig(t, ccfg, scfg, h)
		g := newWireTap(t, r, history)
		for k := 0; k < 3; k++ {
			k := k
			g.enqueue(CallSpec{Method: 1, Size: 8, OnResponse: nop,
				Build: func(dst []byte, _ uint64) (uint32, int, error) {
					clear(dst)
					dst[0] = byte(k)
					return 0, 8, nil
				}})
		}
		g.flush()
		sc := &r.server.Counters
		for k := 0; k < 3; k++ {
			close(hgate[k])
			g.serverUntil(fmt.Sprintf("handler %d reserved", k), func() bool { return sc.DuplexHandled == uint64(k+1) })
		}
		close(bgate[0])
		g.serverUntil("build 0 committed", func() bool { return sc.DuplexBuilt == 1 })
		close(bgate[1])
		g.serverUntil("build 1 tombstoned", func() bool { return sc.DuplexTombstones == 1 })
		close(bgate[2])
		g.serverUntil("response block sent", func() bool { return sc.BlocksSent == 1 })
		g.pump()
		return g
	}},

	{"ack_only", "ack_only", func(t *testing.T, history bool) *wireTap {
		ccfg, scfg := smallCfg()
		r := newRig(t, ccfg, scfg, goldenEcho)
		g := newWireTap(t, r, history)
		g.enqueue(patterned(0, 32, nop))
		g.flush()
		g.serverPass() // answers request 0
		g.enqueue(patterned(1, 32, nop))
		g.flush()      // request 1 leaves before the response is seen
		g.clientPass() // response 0 arrives: its ack rides an empty block
		if r.client.Counters.AckOnlyBlocks != 1 {
			t.Fatalf("ack-only blocks = %d, want 1", r.client.Counters.AckOnlyBlocks)
		}
		g.pump()
		return g
	}},

	{"credit_stall", "credit_stall", func(t *testing.T, history bool) *wireTap {
		ccfg, scfg := smallCfg()
		ccfg.Credits, scfg.Credits = 2, 2
		r := newRig(t, ccfg, scfg, goldenEcho)
		g := newWireTap(t, r, history)
		for i := 0; i < 6; i++ {
			g.enqueue(patterned(i, 48, nop))
			g.flush()
		}
		if r.client.Counters.CreditStalls == 0 {
			t.Fatal("no credit stall at two credits")
		}
		g.pump()
		for i := 6; i < 12; i++ {
			g.enqueue(patterned(i, 48, nop))
			g.flush()
			g.serverPass()
		}
		g.pump()
		return g
	}},

	{"send_fault", "send_fault", func(t *testing.T, history bool) *wireTap {
		ccfg, scfg := smallCfg()
		ccfg.Faults = &fault.Plan{ErrorRate: 0.3, Seed: 13}
		scfg.Faults = &fault.Plan{ErrorRate: 0.3, Seed: 7}
		r := newRig(t, ccfg, scfg, goldenEcho)
		g := newWireTap(t, r, history)
		for i := 0; i < 40; i++ {
			g.enqueue(patterned(i, 8+i%50, nop))
			if i%4 == 3 {
				g.flush()
				g.pump()
			}
		}
		if r.client.Counters.SendFaultRetries == 0 || r.server.Counters.SendFaultRetries == 0 {
			t.Fatalf("retries: client %d, server %d; want both > 0",
				r.client.Counters.SendFaultRetries, r.server.Counters.SendFaultRetries)
		}
		return g
	}},

	// The serial Enqueue wrapper and the Reserve/Commit pipeline must put
	// the same bytes on the wire.
	{"mixed_enqueue", "mixed", func(t *testing.T, history bool) *wireTap { return mixedSchedule(t, history, false) }},
	{"mixed_reserve", "mixed", func(t *testing.T, history bool) *wireTap { return mixedSchedule(t, history, true) }},
}

func mixedSchedule(t *testing.T, history, viaReserve bool) *wireTap {
	ccfg, scfg := smallCfg()
	r := newRig(t, ccfg, scfg, goldenEcho)
	g := newWireTap(t, r, history)
	for i := 0; i < 200; i++ {
		spec := patterned(i, 16+(i*13)%240, nop)
		if viaReserve {
			g.do(func() error {
				res, err := r.client.Reserve(spec.Method, spec.Size, spec.OnResponse)
				if err != nil {
					return err
				}
				root, used, _ := spec.Build(res.Dst, res.RegionOff)
				return r.client.Commit(res, root, used)
			})
		} else {
			g.enqueue(spec)
		}
		if i%50 == 49 {
			g.pump()
		}
	}
	g.pump()
	return g
}

func TestGoldenBlocks(t *testing.T) {
	for _, s := range goldenSchedules {
		t.Run(s.name, func(t *testing.T) { s.run(t, false).check(s.file) })
	}
}

// A block's wire bytes must not depend on what the connection wrote at the
// same offsets before: every schedule records the same blocks when its send
// buffers hold earlier blocks' bytes (0xDB) as when they start cleared.
func TestGoldenBlocksIgnoreBufferHistory(t *testing.T) {
	for _, s := range goldenSchedules {
		t.Run(s.name, func(t *testing.T) {
			fresh, used := s.run(t, false).records(), s.run(t, true).records()
			if fresh != used {
				t.Fatalf("records differ on used send buffers\nfresh:\n%sused:\n%s", fresh, used)
			}
		})
	}
}

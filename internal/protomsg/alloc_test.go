package protomsg_test

import (
	"testing"

	"dpurpc/internal/protomsg"
	"dpurpc/internal/workload"
)

// New allocates the Message and its field slots and nothing else: presence
// lives in the slots, not in a parallel slice. The handler of every
// offloaded echo makes one message per request, so this is on the
// per-request path.
func TestNewDoesNotAllocatePresenceSlice(t *testing.T) {
	desc := workload.NewEnv().Blob
	var m *protomsg.Message
	if a := testing.AllocsPerRun(100, func() { m = protomsg.New(desc) }); a != 2 {
		t.Errorf("protomsg.New(%s): %v allocs, want 2", desc.Name, a)
	}
	if err := m.SetBytes("data", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if !m.Has("data") {
		t.Error("Has(data) = false after SetBytes")
	}
	m.Clear()
	if m.Has("data") {
		t.Error("Has(data) = true after Clear")
	}
}

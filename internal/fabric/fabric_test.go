package fabric

import (
	"sync"
	"testing"
)

func TestRecordAndStats(t *testing.T) {
	l := NewLink()
	l.Record(DPUToHost, 100)
	l.Record(DPUToHost, 200)
	l.Record(HostToDPU, 50)
	s := l.Stats(DPUToHost)
	if s.Bytes != 300 || s.Transfers != 2 || s.Overhead != uint64(2*DefaultMsgOverheadBytes) {
		t.Errorf("stats = %+v", s)
	}
	if s.TotalBytes() != 300+uint64(2*DefaultMsgOverheadBytes) {
		t.Error("TotalBytes wrong")
	}
	if l.Stats(HostToDPU).Bytes != 50 {
		t.Error("direction mixing")
	}
	want := uint64(300 + 50 + 3*DefaultMsgOverheadBytes)
	if l.TotalBytes() != want {
		t.Errorf("TotalBytes = %d want %d", l.TotalBytes(), want)
	}
}

func TestTransferTime(t *testing.T) {
	l := NewLink()
	// 200 Gb/s -> 25 bytes/ns: 2500 bytes take 100ns.
	if got := l.TransferNS(2500); got != 100 {
		t.Errorf("TransferNS = %v", got)
	}
	l.Record(DPUToHost, 2500-DefaultMsgOverheadBytes)
	if got := l.BusyNS(); got != 100 {
		t.Errorf("BusyNS = %v", got)
	}
}

func TestWindow(t *testing.T) {
	l := NewLink()
	l.Record(DPUToHost, 10)
	l.MarkWindow()
	l.Record(DPUToHost, 5)
	l.Record(HostToDPU, 7)
	d2h, h2d := l.WindowDelta()
	if d2h.Bytes != 5 || d2h.Transfers != 1 || h2d.Bytes != 7 {
		t.Errorf("delta = %+v %+v", d2h, h2d)
	}
}

func TestDirectionString(t *testing.T) {
	if DPUToHost.String() != "dpu->host" || HostToDPU.String() != "host->dpu" {
		t.Error("Direction strings wrong")
	}
}

func TestConcurrentRecord(t *testing.T) {
	l := NewLink()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.Record(DPUToHost, 1)
			}
		}()
	}
	wg.Wait()
	if l.Stats(DPUToHost).Bytes != 8000 {
		t.Error("lost updates")
	}
}

func TestReset(t *testing.T) {
	l := NewLink()
	l.Record(HostToDPU, 9)
	l.MarkWindow()
	l.Reset()
	if l.TotalBytes() != 0 {
		t.Error("counters not reset")
	}
	d2h, h2d := l.WindowDelta()
	if d2h.Bytes != 0 || h2d.Bytes != 0 {
		t.Error("window not reset")
	}
}

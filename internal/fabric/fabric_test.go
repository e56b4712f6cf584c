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
	if got := l.TransferNS(l.TotalBytes()); got != 100 {
		t.Errorf("busy time = %v", got)
	}
}

// A window's traffic is the difference of two Stats reads.
func TestWindow(t *testing.T) {
	l := NewLink()
	l.Record(DPUToHost, 10)
	d0, h0 := l.Stats(DPUToHost), l.Stats(HostToDPU)
	l.Record(DPUToHost, 5)
	l.Record(HostToDPU, 7)
	d1, h1 := l.Stats(DPUToHost), l.Stats(HostToDPU)
	if d1.Bytes-d0.Bytes != 5 || d1.Transfers-d0.Transfers != 1 || h1.Bytes-h0.Bytes != 7 {
		t.Errorf("delta = %+v %+v -> %+v %+v", d0, h0, d1, h1)
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

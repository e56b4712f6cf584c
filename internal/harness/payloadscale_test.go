package harness

import "testing"

// TestPayloadScaleSGWins pins the headline acceptance of the SG payload
// path: at 1 MiB payloads the SG leg copies (near) zero payload bytes per
// request through the object arena and at least doubles the
// deserializer-limited goodput of the inline leg.
func TestPayloadScaleSGWins(t *testing.T) {
	opts := DefaultOptions()
	opts.Requests = 256
	sizes := []int{1 << 10, 1 << 20}
	rows, err := PayloadScale(opts, sizes)
	if err != nil {
		t.Fatal(err)
	}
	// sizes x {inline, SG}.
	if len(rows) != len(sizes)*2 {
		t.Fatalf("got %d rows, want %d", len(rows), len(sizes)*2)
	}

	find := func(size, sgMin int) *PayloadScaleRow {
		for i := range rows {
			r := &rows[i]
			if r.PayloadBytes == size && r.SGPayloadMin == sgMin {
				return r
			}
		}
		t.Fatalf("row size=%d sg=%d missing", size, sgMin)
		return nil
	}

	inline := find(1<<20, 0)
	sg := find(1<<20, 1<<10)

	// Inline leg copies the whole payload; SG leg references it.
	if inline.CopiedBytesPerReq < float64(1<<20) {
		t.Errorf("inline CopiedBytesPerReq = %.0f, want >= %d", inline.CopiedBytesPerReq, 1<<20)
	}
	if sg.CopiedBytesPerReq > 1024 {
		t.Errorf("SG CopiedBytesPerReq = %.0f, want ~0", sg.CopiedBytesPerReq)
	}
	if sg.RefBytesPerReq < float64(1<<20) {
		t.Errorf("SG RefBytesPerReq = %.0f, want >= %d", sg.RefBytesPerReq, 1<<20)
	}
	if sg.SGMsgsPerReq < 0.99 {
		t.Errorf("SGMsgsPerReq = %.2f, want ~1", sg.SGMsgsPerReq)
	}
	if sg.DeserGoodputMBps < 2*inline.DeserGoodputMBps {
		t.Errorf("SG goodput %.0f MB/s < 2x inline %.0f MB/s",
			sg.DeserGoodputMBps, inline.DeserGoodputMBps)
	}

	// Below-threshold sanity: at 1 KiB with sgMin = 1 KiB the payload is
	// exactly at the threshold and still rides as an SG segment.
	small := find(1<<10, 1<<10)
	if small.RefBytesPerReq < float64(1<<10) {
		t.Errorf("1KiB SG RefBytesPerReq = %.0f, want >= %d", small.RefBytesPerReq, 1<<10)
	}
}

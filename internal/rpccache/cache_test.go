package rpccache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"dpurpc/internal/metrics"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/workload"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%06d", i)) }

func TestGetPutRoundTrip(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Methods: 4})
	if _, _, ok := c.Get(1, key(0)); ok {
		t.Fatal("hit on empty cache")
	}
	if !c.Put(1, key(0), val(0), 7) {
		t.Fatal("put rejected")
	}
	got, st, ok := c.Get(1, key(0))
	if !ok || st != 7 || !bytes.Equal(got, val(0)) {
		t.Fatalf("get = %q/%d/%v, want %q/7/true", got, st, ok, val(0))
	}
	// Same key under a different method is a distinct entry.
	if _, _, ok := c.Get(2, key(0)); ok {
		t.Fatal("hit across method boundary")
	}
	st8 := c.Stats()
	if st8.Hits != 1 || st8.Misses != 2 || st8.Insertions != 1 {
		t.Fatalf("stats = %+v", st8)
	}
	h, m := c.MethodStats(1)
	if h != 1 || m != 1 {
		t.Fatalf("method 1 stats = %d/%d, want 1/1", h, m)
	}
}

func TestReplaceExistingKey(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	c.Put(0, key(1), val(1), 0)
	c.Put(0, key(1), []byte("replaced"), 0)
	got, _, ok := c.Get(0, key(1))
	if !ok || string(got) != "replaced" {
		t.Fatalf("get = %q/%v, want replaced", got, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (replace must not duplicate)", c.Len())
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("replace counted as eviction: %+v", s)
	}
}

// TestEvictionAtMaxBytesBoundary pins the memory bound exactly: inserts
// stay within MaxBytes, the insert that would cross the boundary evicts the
// probation LRU tail, and resident bytes never exceed the bound.
func TestEvictionAtMaxBytesBoundary(t *testing.T) {
	// Each entry charges len(key)+len(val)+entryOverhead = 10+12+96 = 118.
	entrySize := len(key(0)) + len(val(0)) + entryOverhead
	max := 4 * entrySize
	c := New(Config{MaxBytes: max})
	for i := 0; i < 4; i++ {
		c.Put(0, key(i), val(i), 0)
	}
	if c.Len() != 4 || c.Bytes() != max {
		t.Fatalf("len=%d bytes=%d, want 4/%d (exactly at the bound, no eviction)",
			c.Len(), c.Bytes(), max)
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("evicted below the bound: %+v", s)
	}
	// One byte over: the LRU entry (key 0) must go, the rest stay.
	c.Put(0, key(4), val(4), 0)
	if c.Len() != 4 || c.Bytes() > max {
		t.Fatalf("after overflow: len=%d bytes=%d, want 4/<=%d", c.Len(), c.Bytes(), max)
	}
	if _, _, ok := c.Get(0, key(0)); ok {
		t.Fatal("LRU entry survived the boundary eviction")
	}
	for i := 1; i <= 4; i++ {
		if _, _, ok := c.Get(0, key(i)); !ok {
			t.Fatalf("entry %d evicted, want only the LRU victim", i)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want exactly 1", s.Evictions)
	}
	// An entry larger than the whole bound is rejected outright.
	if c.Put(0, key(9), make([]byte, max+1), 0) {
		t.Fatal("oversized entry accepted")
	}
}

// TestSegmentedLRUProtectsHotSet is the segmented-vs-plain-LRU property: a
// scan of cold keys evicts other cold keys (probation), never the hot
// entries promoted to the protected segment.
func TestSegmentedLRUProtectsHotSet(t *testing.T) {
	entrySize := len(key(0)) + len(val(0)) + entryOverhead
	c := New(Config{MaxBytes: 8 * entrySize})
	// Four hot keys: inserted, then hit (promoted to protected).
	for i := 0; i < 4; i++ {
		c.Put(0, key(i), val(i), 0)
	}
	for i := 0; i < 4; i++ {
		if _, _, ok := c.Get(0, key(i)); !ok {
			t.Fatalf("hot key %d missing before scan", i)
		}
	}
	// A long scan of one-shot keys, never hit again.
	for i := 100; i < 200; i++ {
		c.Put(0, key(i), val(i), 0)
	}
	for i := 0; i < 4; i++ {
		if _, _, ok := c.Get(0, key(i)); !ok {
			t.Fatalf("hot key %d evicted by cold scan (plain-LRU behavior)", i)
		}
	}
}

func TestMaxEntriesBound(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, MaxEntries: 3})
	for i := 0; i < 10; i++ {
		c.Put(0, key(i), val(i), 0)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
}

func TestTTLExpiry(t *testing.T) {
	now := int64(0)
	c := New(Config{MaxBytes: 1 << 20, TTL: time.Second, now: func() int64 { return now }})
	c.Put(0, key(0), val(0), 0)
	if _, _, ok := c.Get(0, key(0)); !ok {
		t.Fatal("miss before expiry")
	}
	now = int64(time.Second) - 1
	if _, _, ok := c.Get(0, key(0)); !ok {
		t.Fatal("miss just before the deadline")
	}
	now = int64(time.Second)
	if _, _, ok := c.Get(0, key(0)); ok {
		t.Fatal("hit at the deadline")
	}
	s := c.Stats()
	if s.Expirations != 1 || s.Entries != 0 {
		t.Fatalf("stats after expiry = %+v", s)
	}
}

func TestInvalidateMethod(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	for i := 0; i < 8; i++ {
		c.Put(uint16(i%2), key(i), val(i), 0)
	}
	if n := c.InvalidateMethod(0); n != 4 {
		t.Fatalf("invalidated %d, want 4", n)
	}
	for i := 0; i < 8; i++ {
		_, _, ok := c.Get(uint16(i%2), key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d present=%v, want %v", i, ok, want)
		}
	}
	if n := c.InvalidateAll(); n != 4 {
		t.Fatalf("invalidate all removed %d, want 4", n)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("len=%d bytes=%d after InvalidateAll", c.Len(), c.Bytes())
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if _, _, ok := c.Get(0, key(0)); ok {
		t.Fatal("nil cache hit")
	}
	if c.Put(0, key(0), val(0), 0) {
		t.Fatal("nil cache accepted a put")
	}
	c.InvalidateMethod(0)
	c.InvalidateAll()
	_ = c.Stats()
	_ = c.Len()
}

func TestRegistryMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{MaxBytes: 4096, Methods: 2})
	c.EnableMetrics(reg, []string{"/svc/A", "/svc/B"})
	c.Put(0, key(0), val(0), 0)
	c.Get(0, key(0))
	c.Get(1, key(9))
	out := reg.Render()
	for _, want := range []string{
		`rpc_cache_hits_total 1`,
		`rpc_cache_misses_total 1`,
		`rpc_cache_method_hits_total{method="/svc/A"} 1`,
		`rpc_cache_method_misses_total{method="/svc/B"} 1`,
		`rpc_cache_bytes_total`,
		`rpc_cache_evictions_total`,
	} {
		if !contains(out, want) {
			t.Errorf("registry render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// TestConcurrentHitInvalidate is the invalidation-vs-concurrent-hit race:
// readers hammer Get while writers invalidate and re-insert. Run under
// `make race`. Values observed by a hit must always be the value inserted
// for that key (entries are immutable in place).
func TestConcurrentHitInvalidate(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Methods: 1})
	const keys = 64
	for i := 0; i < keys; i++ {
		c.Put(0, key(i), val(i), 0)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				i = (i + 7) % keys
				if v, _, ok := c.Get(0, key(i)); ok && !bytes.Equal(v, val(i)) {
					t.Errorf("hit on key %d returned %q", i, v)
					return
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				c.InvalidateMethod(0)
				for i := 0; i < keys; i++ {
					c.Put(0, key(i), val(i), 0)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestGetZeroAlloc pins the hit path at zero heap allocations — the
// contract BenchmarkCacheHit measures and the cpumodel's DPU-only hit
// pricing assumes.
func TestGetZeroAlloc(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Methods: 2})
	k, v := key(0), val(0)
	c.Put(1, k, v, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := c.Get(1, k); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocated %v times per hit, want 0", allocs)
	}
	// The miss path is allocation-free too.
	miss := key(9999)
	allocs = testing.AllocsPerRun(1000, func() { c.Get(1, miss) })
	if allocs != 0 {
		t.Fatalf("Get (miss) allocated %v times per probe, want 0", allocs)
	}
}

// BenchmarkCacheHit is the hot-path cost of serving one cached RPC: hash
// over a small request, bucket probe, key compare, LRU touch. Zero
// allocations (gated by TestGetZeroAlloc).
func BenchmarkCacheHit(b *testing.B) {
	c := New(Config{MaxBytes: 1 << 20, Methods: 2})
	k := []byte("small-request-15B")
	c.Put(1, k, []byte("resp"), 0)
	b.SetBytes(int64(len(k)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.Get(1, k); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkCacheMiss is the probe cost a cacheable method pays when the key
// is cold — the overhead the miss path adds on top of the normal datapath.
func BenchmarkCacheMiss(b *testing.B) {
	c := New(Config{MaxBytes: 1 << 20, Methods: 2})
	k := []byte("never-inserted-k")
	b.SetBytes(int64(len(k)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.Get(1, k); ok {
			b.Fatal("hit")
		}
	}
}

// BenchmarkCacheZipfHitRate drives the cache with zipfian key popularity
// (s=1.1, 1024 keys, cache sized for a quarter of them) and reports the steady-state hit rate as a custom
// metric: go test -bench CacheZipfHitRate -run '^$' ./internal/rpccache.
func BenchmarkCacheZipfHitRate(b *testing.B) {
	const nkeys = 1024
	keys := make([][]byte, nkeys)
	vals := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = key(i)
		vals[i] = val(i)
	}
	entrySize := len(keys[0]) + len(vals[0]) + entryOverhead
	c := New(Config{MaxBytes: nkeys / 4 * entrySize, Methods: 1})
	z := workload.NewZipf(mt19937.New(mt19937.DefaultSeed), nkeys, 1.1)
	// Warm: one pass of zipf traffic populates the hot set.
	for i := 0; i < 4*nkeys; i++ {
		k := z.Next()
		if _, _, ok := c.Get(0, keys[k]); !ok {
			c.Put(0, keys[k], vals[k], 0)
		}
	}
	before := c.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := z.Next()
		if _, _, ok := c.Get(0, keys[k]); !ok {
			c.Put(0, keys[k], vals[k], 0)
		}
	}
	b.StopTimer()
	after := c.Stats()
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit_rate")
	}
}

// BenchmarkCachePut is the insert-path cost (key+value copy, eviction).
func BenchmarkCachePut(b *testing.B) {
	c := New(Config{MaxBytes: 1 << 20})
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = key(i)
	}
	v := val(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(0, keys[i%len(keys)], v, 0)
	}
}

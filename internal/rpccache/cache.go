// Package rpccache is the DPU-resident response cache for hot idempotent
// RPCs: the strongest possible offload, where a repeated request never
// crosses PCIe at all. Entries are keyed on (method ID, raw request bytes) —
// a fast 64-bit hash over the undeserialized request block picks the bucket
// and an exact byte compare confirms the key, so the hit path never touches
// the deserializer. The stored value is the final client-facing response
// (status + serialized payload bytes), captured after the host committed it
// and the DPU produced the wire form, so a hit is byte-identical to the
// uncached path by construction regardless of SG framing or how requests
// share blocks.
//
// Memory is bounded (MaxBytes / MaxEntries) with segmented-LRU eviction:
// new entries enter a probationary segment and are promoted to the
// protected segment on their first hit; eviction drains probation first, so
// one burst of cold keys cannot flush the hot set. TTL expiry is lazy
// (checked on hit) plus reclaimed during eviction. Invalidation is explicit
// (per method or whole cache) and automatic: the offload layer invalidates
// a method when one of its cached calls returns an error status.
//
// The hit path (Get) performs zero heap allocations — see
// BenchmarkCacheHit and its AllocsPerRun pin. One Cache is shared by every
// DPU server of a deployment, so entries survive connection redials.
package rpccache

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"dpurpc/internal/metrics"
)

// Config bounds and tunes one cache.
type Config struct {
	// MaxBytes bounds the resident key+value bytes (plus a fixed
	// per-entry overhead charge); 0 selects 8 MiB. Entries larger than
	// the bound are never cached.
	MaxBytes int
	// MaxEntries bounds the entry count; 0 means only MaxBytes applies.
	MaxEntries int
	// TTL is the entry lifetime; 0 disables expiry.
	TTL time.Duration
	// Methods sizes the per-method hit/miss counter table (procedure IDs
	// 0..Methods-1). 0 disables per-method accounting.
	Methods int

	// now overrides the clock in tests (ns).
	now func() int64
}

// DefaultMaxBytes is the memory bound when Config.MaxBytes is zero.
const DefaultMaxBytes = 8 << 20

// entryOverhead is the fixed per-entry byte charge covering the entry
// struct and its bucket/list links, so MaxBytes bounds real memory even for
// tiny keys.
const entryOverhead = 96

// Segments of the segmented LRU.
const (
	segProbation = iota // entered on insert, first to be evicted
	segProtected        // promoted on first hit
)

// protectedFrac is the protected segment's share of MaxBytes; promotions
// beyond it demote the protected LRU tail back to probation, so scans
// cannot pin the whole cache behind one-hit wonders.
const protectedFrac = 0.8

type entry struct {
	hash   uint64
	method uint16
	status uint16
	seg    uint8
	size   int   // key+value+entryOverhead bytes charged against MaxBytes
	expire int64 // ns deadline; 0 = no expiry
	key    []byte
	val    []byte

	hnext      *entry // hash-bucket chain
	prev, next *entry // LRU links within seg (nil-terminated, head = MRU)
}

// lruList is one segment's recency list; head is most recent.
type lruList struct {
	head, tail *entry
	bytes      int
}

func (l *lruList) pushFront(e *entry) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.bytes += e.size
}

func (l *lruList) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.bytes -= e.size
}

// methodCounters is one method's hit/miss accounting, plus the optional
// live registry series (labeled by method name) attached by EnableMetrics.
type methodCounters struct {
	hits   atomic.Uint64
	misses atomic.Uint64

	regHits   *metrics.Counter
	regMisses *metrics.Counter
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          uint64 // requests served from the cache
	Misses        uint64 // probes that fell through to the host path
	Evictions     uint64 // entries removed by the LRU bound
	Expirations   uint64 // entries removed by TTL
	Invalidations uint64 // entries removed by InvalidateMethod/InvalidateAll
	Insertions    uint64 // successful Puts
	BytesInserted uint64 // cumulative key+value bytes inserted
	HitBytes      uint64 // cumulative response bytes served from the cache
	ProbeBytes    uint64 // cumulative request bytes hashed/compared by probes
	Bytes         int64  // resident bytes (keys + values + overhead)
	Entries       int64  // resident entry count
}

// Cache is a bounded (method, request bytes) -> response cache. All methods
// are safe for concurrent use; Get performs no heap allocations.
type Cache struct {
	cfg      Config
	maxBytes int
	protCap  int
	now      func() int64

	mu        sync.Mutex
	buckets   []*entry // power-of-two sized, chained
	mask      uint64
	probation lruList
	protected lruList
	entries   int

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	expirations   atomic.Uint64
	invalidations atomic.Uint64
	insertions    atomic.Uint64
	bytesInserted atomic.Uint64
	hitBytes      atomic.Uint64
	probeBytes    atomic.Uint64

	perMethod []methodCounters

	// Optional live registry series (nil until EnableMetrics).
	regHits      *metrics.Counter
	regMisses    *metrics.Counter
	regEvictions *metrics.Counter
	regBytes     *metrics.Counter
}

// New builds a cache with the given bounds.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	nb := 1024
	if cfg.MaxEntries > 0 {
		nb = cfg.MaxEntries * 2
	}
	size := 16
	for size < nb {
		size <<= 1
	}
	c := &Cache{
		cfg:      cfg,
		maxBytes: cfg.MaxBytes,
		protCap:  int(protectedFrac * float64(cfg.MaxBytes)),
		now:      cfg.now,
		buckets:  make([]*entry, size),
		mask:     uint64(size - 1),
	}
	if c.now == nil {
		c.now = func() int64 { return time.Now().UnixNano() }
	}
	if cfg.Methods > 0 {
		c.perMethod = make([]methodCounters, cfg.Methods)
	}
	return c
}

// EnableMetrics attaches live registry series: the four cache totals plus
// per-method hit/miss counters labeled by full method name (index =
// procedure ID). Call before serving; the datapath then keeps the series
// current with atomic adds only.
func (c *Cache) EnableMetrics(reg *metrics.Registry, methodNames []string) {
	if c == nil || reg == nil {
		return
	}
	c.regHits = reg.Counter("rpc_cache_hits_total", "RPCs served from the DPU response cache", nil)
	c.regMisses = reg.Counter("rpc_cache_misses_total", "cacheable RPCs that missed and crossed to the host", nil)
	c.regEvictions = reg.Counter("rpc_cache_evictions_total", "cache entries evicted by the memory bound", nil)
	c.regBytes = reg.Counter("rpc_cache_bytes_total", "cumulative key+value bytes inserted into the cache", nil)
	for id, name := range methodNames {
		if id >= len(c.perMethod) {
			break
		}
		l := map[string]string{"method": name}
		c.perMethod[id].regHits = reg.Counter("rpc_cache_method_hits_total",
			"cache hits, by method", l)
		c.perMethod[id].regMisses = reg.Counter("rpc_cache_method_misses_total",
			"cache misses, by method", l)
	}
}

// hashKey is FNV-1a over the method ID and the raw request block — no
// deserialization, no allocation.
func hashKey(method uint16, req []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(method&0xff)) * prime64
	h = (h ^ uint64(method>>8)) * prime64
	for _, b := range req {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// Get probes the cache. On a hit it returns the stored response bytes and
// status; the returned slice aliases the immutable cache entry (valid even
// after eviction — entries are never mutated in place) and must not be
// modified. Zero heap allocations. Nil-receiver safe: a disabled cache
// misses everything for one pointer test.
func (c *Cache) Get(method uint16, req []byte) ([]byte, uint16, bool) {
	if c == nil {
		return nil, 0, false
	}
	c.probeBytes.Add(uint64(len(req)))
	h := hashKey(method, req)
	c.mu.Lock()
	e := c.buckets[h&c.mask]
	for e != nil {
		if e.hash == h && e.method == method && bytes.Equal(e.key, req) {
			break
		}
		e = e.hnext
	}
	if e == nil {
		c.mu.Unlock()
		c.recordMiss(method)
		return nil, 0, false
	}
	if e.expire != 0 && c.now() >= e.expire {
		c.unlink(e)
		c.mu.Unlock()
		c.expirations.Add(1)
		c.recordMiss(method)
		return nil, 0, false
	}
	c.touch(e)
	val, st := e.val, e.status
	c.mu.Unlock()
	c.hits.Add(1)
	c.hitBytes.Add(uint64(len(val)))
	if c.regHits != nil {
		c.regHits.Inc()
	}
	if int(method) < len(c.perMethod) {
		m := &c.perMethod[method]
		m.hits.Add(1)
		if m.regHits != nil {
			m.regHits.Inc()
		}
	}
	return val, st, true
}

// recordMiss bumps the global and per-method miss counters (atomics only,
// no lock).
func (c *Cache) recordMiss(method uint16) {
	c.misses.Add(1)
	if c.regMisses != nil {
		c.regMisses.Inc()
	}
	if int(method) < len(c.perMethod) {
		m := &c.perMethod[method]
		m.misses.Add(1)
		if m.regMisses != nil {
			m.regMisses.Inc()
		}
	}
}

// touch applies a hit to the segmented LRU: probationary entries are
// promoted to protected (demoting the protected tail when over its byte
// share), protected entries move to their segment's MRU position. Caller
// holds mu.
func (c *Cache) touch(e *entry) {
	if e.seg == segProtected {
		c.protected.remove(e)
		c.protected.pushFront(e)
		return
	}
	c.probation.remove(e)
	e.seg = segProtected
	c.protected.pushFront(e)
	for c.protected.bytes > c.protCap && c.protected.tail != nil && c.protected.tail != e {
		d := c.protected.tail
		c.protected.remove(d)
		d.seg = segProbation
		c.probation.pushFront(d)
	}
}

// Put inserts one response. Key and value bytes are copied (the insert path
// may allocate; the hit path never does). Entries larger than MaxBytes are
// rejected. A Put for an existing key replaces the entry. Nil-receiver safe.
func (c *Cache) Put(method uint16, req, resp []byte, status uint16) bool {
	if c == nil {
		return false
	}
	size := len(req) + len(resp) + entryOverhead
	if size > c.maxBytes {
		return false
	}
	h := hashKey(method, req)
	var expire int64
	if c.cfg.TTL > 0 {
		expire = c.now() + int64(c.cfg.TTL)
	}
	e := &entry{
		hash:   h,
		method: method,
		status: status,
		seg:    segProbation,
		size:   size,
		expire: expire,
		key:    append([]byte(nil), req...),
		val:    append([]byte(nil), resp...),
	}
	c.mu.Lock()
	// Replace an existing entry for the same key (not an eviction).
	for old := c.buckets[h&c.mask]; old != nil; old = old.hnext {
		if old.hash == h && old.method == method && bytes.Equal(old.key, req) {
			c.unlink(old)
			break
		}
	}
	evicted := 0
	for c.probation.bytes+c.protected.bytes+size > c.maxBytes ||
		(c.cfg.MaxEntries > 0 && c.entries+1 > c.cfg.MaxEntries) {
		if !c.evictOne() {
			break
		}
		evicted++
	}
	b := h & c.mask
	e.hnext = c.buckets[b]
	c.buckets[b] = e
	c.probation.pushFront(e)
	c.entries++
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
		if c.regEvictions != nil {
			c.regEvictions.Add(uint64(evicted))
		}
	}
	c.insertions.Add(1)
	c.bytesInserted.Add(uint64(size - entryOverhead))
	if c.regBytes != nil {
		c.regBytes.Add(uint64(size - entryOverhead))
	}
	return true
}

// evictOne removes the best eviction candidate: the probation LRU tail, or
// the protected tail once probation is empty. Caller holds mu.
func (c *Cache) evictOne() bool {
	e := c.probation.tail
	if e == nil {
		e = c.protected.tail
	}
	if e == nil {
		return false
	}
	c.unlink(e)
	return true
}

// unlink removes e from its bucket chain and LRU segment. Caller holds mu.
func (c *Cache) unlink(e *entry) {
	b := e.hash & c.mask
	if c.buckets[b] == e {
		c.buckets[b] = e.hnext
	} else {
		for p := c.buckets[b]; p != nil; p = p.hnext {
			if p.hnext == e {
				p.hnext = e.hnext
				break
			}
		}
	}
	e.hnext = nil
	if e.seg == segProtected {
		c.protected.remove(e)
	} else {
		c.probation.remove(e)
	}
	c.entries--
}

// InvalidateMethod removes every entry of one method and returns the count.
// The offload layer calls it automatically when a cached method returns an
// error status; applications call it (via Stack.InvalidateMethod) when the
// method's backing state changes. Nil-receiver safe.
func (c *Cache) InvalidateMethod(method uint16) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	removed := 0
	for b := range c.buckets {
		for e := c.buckets[b]; e != nil; {
			next := e.hnext
			if e.method == method {
				c.unlink(e)
				removed++
			}
			e = next
		}
	}
	c.mu.Unlock()
	c.invalidations.Add(uint64(removed))
	return removed
}

// InvalidateAll empties the cache and returns the count removed.
func (c *Cache) InvalidateAll() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	removed := c.entries
	for b := range c.buckets {
		c.buckets[b] = nil
	}
	c.probation = lruList{}
	c.protected = lruList{}
	c.entries = 0
	c.mu.Unlock()
	c.invalidations.Add(uint64(removed))
	return removed
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries
}

// Bytes returns the resident byte charge (keys + values + overhead).
func (c *Cache) Bytes() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.probation.bytes + c.protected.bytes
}

// Stats snapshots the counters. Safe from any goroutine.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	bytes := int64(c.probation.bytes + c.protected.bytes)
	entries := int64(c.entries)
	c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Expirations:   c.expirations.Load(),
		Invalidations: c.invalidations.Load(),
		Insertions:    c.insertions.Load(),
		BytesInserted: c.bytesInserted.Load(),
		HitBytes:      c.hitBytes.Load(),
		ProbeBytes:    c.probeBytes.Load(),
		Bytes:         bytes,
		Entries:       entries,
	}
}

// MethodStats returns one method's hit/miss counts (zero for methods
// outside the configured table).
func (c *Cache) MethodStats(method uint16) (hits, misses uint64) {
	if c == nil || int(method) >= len(c.perMethod) {
		return 0, 0
	}
	m := &c.perMethod[method]
	return m.hits.Load(), m.misses.Load()
}

// Methods returns the per-method counter table size.
func (c *Cache) Methods() int {
	if c == nil {
		return 0
	}
	return len(c.perMethod)
}

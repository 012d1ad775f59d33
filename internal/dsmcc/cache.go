package dsmcc

import (
	"container/list"
	"sync"

	"oddci/internal/obs"
)

// DefaultChunkCacheBytes bounds a ChunkCache when the caller passes no
// budget — sized like the flash partition a set-top box dedicates to
// carousel persistence.
const DefaultChunkCacheBytes = 16 << 20

// ChunkCache is a bounded, hash-keyed store of module payloads — the
// PNA-side half of delta image distribution. Receivers populate it as
// modules assemble and satisfy unchanged modules from it when a new DII
// arrives, so a delta re-air (DII + changed modules) is enough to
// converge. Keys are content addresses, so the cache is immune to the
// module-version wrap: two different contents can never collide under
// one key. Eviction is LRU by bytes. It is safe for concurrent use and
// deliberately outlives receiver instances (a set-top box keeps it
// across power cycles, like flash storage).
type ChunkCache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	ll    *list.List // front = most recently used
	items map[ModuleHash]*list.Element
	met   *CacheMetrics
}

type chunkEntry struct {
	hash ModuleHash
	data []byte
}

// NewChunkCache returns a cache bounded to maxBytes (0 or negative
// selects DefaultChunkCacheBytes).
func NewChunkCache(maxBytes int64) *ChunkCache {
	if maxBytes <= 0 {
		maxBytes = DefaultChunkCacheBytes
	}
	return &ChunkCache{
		max:   maxBytes,
		ll:    list.New(),
		items: make(map[ModuleHash]*list.Element),
	}
}

// Instrument attaches shared metrics handles (may be nil). A fleet of
// caches typically shares one CacheMetrics so the counters aggregate.
func (c *ChunkCache) Instrument(m *CacheMetrics) {
	c.mu.Lock()
	c.met = m
	c.mu.Unlock()
}

// Get returns the payload stored under h. Callers must not mutate the
// returned slice.
func (c *ChunkCache) Get(h ModuleHash) ([]byte, bool) {
	if c == nil || h == 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[h]
	if !ok {
		c.met.miss()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.met.hit()
	return el.Value.(*chunkEntry).data, true
}

// contains reports whether h is cached without touching recency or the
// hit/miss counters.
func (c *ChunkCache) contains(h ModuleHash) bool {
	if c == nil || h == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[h]
	return ok
}

// Put stores data under h, evicting least-recently-used entries to stay
// within the byte bound. Payloads larger than the whole cache are
// ignored. The cache keeps data itself, not a copy, and Get hands the
// same slice out: the caller must not write to it afterwards.
func (c *ChunkCache) Put(h ModuleHash, data []byte) {
	if c == nil || h == 0 || int64(len(data)) > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[h]; ok {
		// Same hash, same content (that is the point of the key); just
		// refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	e := &chunkEntry{hash: h, data: data}
	c.items[h] = c.ll.PushFront(e)
	c.bytes += int64(len(e.data))
	c.met.insert()
	for c.bytes > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*chunkEntry)
		c.ll.Remove(back)
		delete(c.items, victim.hash)
		c.bytes -= int64(len(victim.data))
		c.met.evict()
	}
}

// Len returns the number of cached chunks.
func (c *ChunkCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes returns the cached payload bytes.
func (c *ChunkCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// CacheMetrics aggregates chunk-cache telemetry across a fleet of
// caches. All methods are nil-safe, matching the obs idiom.
type CacheMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	inserts   *obs.Counter
	evictions *obs.Counter
}

// NewCacheMetrics registers the chunk-cache counters against reg (nil
// yields inert metrics).
func NewCacheMetrics(reg *obs.Registry) *CacheMetrics {
	m := &CacheMetrics{}
	if reg == nil {
		return m
	}
	m.hits = reg.Counter("oddci_dsmcc_cache_hits_total", "Chunk-cache lookups satisfied locally")
	m.misses = reg.Counter("oddci_dsmcc_cache_misses_total", "Chunk-cache lookups that fell through to the air")
	m.inserts = reg.Counter("oddci_dsmcc_cache_inserts_total", "Chunks admitted to local caches")
	m.evictions = reg.Counter("oddci_dsmcc_cache_evictions_total", "Chunks evicted from local caches (LRU, byte bound)")
	return m
}

func (m *CacheMetrics) hit() {
	if m != nil {
		m.hits.Inc()
	}
}

func (m *CacheMetrics) miss() {
	if m != nil {
		m.misses.Inc()
	}
}

func (m *CacheMetrics) insert() {
	if m != nil {
		m.inserts.Inc()
	}
}

func (m *CacheMetrics) evict() {
	if m != nil {
		m.evictions.Inc()
	}
}

// Hits and Misses expose the hit and miss counters.
func (m *CacheMetrics) Hits() int64 {
	if m == nil {
		return 0
	}
	return m.hits.Value()
}

func (m *CacheMetrics) Misses() int64 {
	if m == nil {
		return 0
	}
	return m.misses.Value()
}

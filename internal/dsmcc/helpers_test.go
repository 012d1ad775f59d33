package dsmcc

import "time"

// Test-only views of a chunk cache and a carousel, and a plain read.

// readFunc is a read with no check stage: the callback alone.
type readFunc func(data []byte, at time.Time, err error)

func (readFunc) Check([]byte) {}

func (f readFunc) Deliver(data []byte, at time.Time, err error) { f(data, at, err) }

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

// cachedChunks returns the number of cached chunks.
func (c *ChunkCache) cachedChunks() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// cachedBytes returns the cached payload bytes.
func (c *ChunkCache) cachedBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

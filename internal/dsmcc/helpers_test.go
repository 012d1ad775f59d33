package dsmcc

// Test-only views of a chunk cache and a carousel.

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

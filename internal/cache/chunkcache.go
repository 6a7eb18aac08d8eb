package cache

import (
	"container/list"
	"sync"

	"repro/internal/chunk"
	"repro/internal/obs"
)

// cellBytes is the memory estimate per decoded cell (chunk.Cell is a
// uint32 offset plus an int64 value, padded to 16 bytes).
const cellBytes = 16

// ChunkCache pins hot decoded chunks above the buffer pool, so a
// repeated array probe pays neither the page fetch nor the chunk-offset
// decode. Entries are keyed by chunk number and tagged with the chunk's
// delta version; a probe under a newer version discards the entry — so
// an ingest batch invalidates exactly the chunks it touched, and a
// compaction (which changes no chunk's observable content) invalidates
// nothing. Plain byte-bounded LRU — decoded chunks are near-uniform in
// recompute cost, so no weighting is needed. Safe for concurrent use.
type ChunkCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[int]*list.Element // chunk number -> *chunkEntry
	lru      *list.List

	hits, misses, evictions, invalidated, invalidations *obs.Counter
}

type chunkEntry struct {
	chunkNum int
	cells    []chunk.Cell
	bytes    int64
	version  uint64
}

// NewChunkCache creates a decoded-chunk cache bounded by maxBytes,
// registering its counters (cache_chunk_*) in reg.
func NewChunkCache(maxBytes int64, reg *obs.Registry) *ChunkCache {
	return &ChunkCache{
		maxBytes: maxBytes,
		entries:  make(map[int]*list.Element),
		lru:      list.New(),
		hits: reg.Counter("cache_chunk_hits_total",
			"chunk reads served decoded from the chunk cache"),
		misses: reg.Counter("cache_chunk_misses_total",
			"chunk cache probes that found no current entry"),
		evictions: reg.Counter("cache_chunk_evictions_total",
			"chunk cache entries evicted by the LRU"),
		invalidated: reg.Counter("cache_chunk_invalidated_total",
			"chunk cache entries discarded because their catalog generation was replaced"),
		invalidations: reg.Counter("cache_chunk_invalidations_total",
			"chunk cache entries discarded for carrying an old per-chunk delta version"),
	}
}

// GetDecoded returns the decoded cells of chunkNum if cached under
// version — the chunk's delta version in the reader's view. Versions
// only grow, so an entry newer than the probe is what current readers
// want: a reader on an older snapshot misses, leaving it.
func (c *ChunkCache) GetDecoded(chunkNum int, version uint64) ([]chunk.Cell, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[chunkNum]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	e := el.Value.(*chunkEntry)
	if e.version != version {
		if e.version < version {
			c.removeLocked(el)
			c.invalidations.Inc()
		}
		c.misses.Inc()
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Inc()
	return e.cells, true
}

// PutDecoded stores the decoded cells of chunkNum under version. The
// slice is retained and served to later readers, which treat decoded
// cells as read-only throughout the engine. An older snapshot's cells do
// not replace a newer entry.
func (c *ChunkCache) PutDecoded(chunkNum int, version uint64, cells []chunk.Cell) {
	bytes := int64(len(cells)) * cellBytes
	if bytes > c.maxBytes/4 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[chunkNum]; ok {
		if old := el.Value.(*chunkEntry); old.version > version {
			return
		}
		c.removeLocked(el)
	}
	e := &chunkEntry{chunkNum: chunkNum, cells: cells, bytes: bytes, version: version}
	c.entries[chunkNum] = c.lru.PushFront(e)
	c.bytes += bytes
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		c.removeLocked(c.lru.Back())
		c.evictions.Inc()
	}
}

func (c *ChunkCache) removeLocked(el *list.Element) {
	e := el.Value.(*chunkEntry)
	c.lru.Remove(el)
	delete(c.entries, e.chunkNum)
	c.bytes -= e.bytes
}

// Bytes reports the retained decoded-cell bytes.
func (c *ChunkCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len reports the number of cached chunks.
func (c *ChunkCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats snapshots the cache counters.
func (c *ChunkCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits.Value(),
		Misses:      c.misses.Value(),
		Evictions:   c.evictions.Value(),
		Invalidated: c.invalidated.Value(),
		Bytes:       c.bytes,
		Entries:     int64(c.lru.Len()),
	}
}

// Clear discards every entry and counts them as invalidated: what the
// executor does to the cache of a catalog generation it replaces.
func (c *ChunkCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidated.Add(int64(c.lru.Len()))
	c.entries = make(map[int]*list.Element)
	c.lru.Init()
	c.bytes = 0
}

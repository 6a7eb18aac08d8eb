// Package cache is the engine's mid-tier query cache: the layer between
// the network server and the evaluation engines that makes repeated
// consolidations cheap. It holds two cooperating caches plus a
// singleflight group:
//
//   - ResultCache, a semantic result cache keyed on the executor's
//     normalized plan fingerprint, storing materialized row sets (and,
//     under live ingest, the array plan's cold cubes) under a
//     cost-aware LRU (eviction prefers entries whose estimated I/O
//     savings per byte are smallest);
//   - ChunkCache, a decoded-chunk cache above the buffer pool that pins
//     hot decompressed chunks so repeated array probes skip the
//     chunk-offset decode;
//   - Group, a context-cancel-safe singleflight, so N concurrent
//     identical queries trigger one engine execution.
//
// Correctness is layered. Whole-object replacement (loads, rebuilds,
// in-place updates, DropCaches) is not this package's concern: the
// executor keeps one set of caches per catalog generation and replaces
// the set, so an entry can only ever be probed by queries that read the
// objects it was computed from (Clear is what the retired set gets).
// Streaming ingest through the delta store is finer-grained:
// decoded-chunk entries carry the chunk's delta version, so an ingest
// batch invalidates only the chunks it touched, and result-cache keys
// embed a version vector over the chunks a plan can see, so results
// stay hittable while unrelated chunks absorb writes.
package cache

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// entry is one cached value with the bookkeeping the LRU needs.
type entry struct {
	key    string
	val    any
	bytes  int64   // what the entry holds, image included
	image  int64   // the part of bytes added by AddImage
	weight float64 // estimated I/O saved per hit (page reads)
	cold   bool    // a cold cube (GetCold/PutCold), not a row set
}

// evictionSample bounds how many LRU-tail entries one eviction
// considers: among the sample, the entry with the least estimated I/O
// saved per byte goes first, so a huge cheap-to-recompute result cannot
// out-stay many small expensive ones merely by being recently touched.
const evictionSample = 5

// ResultCache is the semantic result cache: fingerprint -> materialized
// result, bounded by bytes, with cost-aware LRU eviction. Safe for
// concurrent use.
type ResultCache struct {
	mu         sync.Mutex
	maxBytes   int64
	bytes      int64
	imageBytes int64                    // sum of the entries' image
	coldBytes  int64                    // sum of the cold entries' bytes
	entries    map[string]*list.Element // -> *entry
	lru        *list.List               // front = most recently used

	hits, misses, evictions, invalidated *obs.Counter
	coldHits, coldMisses                 *obs.Counter
}

// NewResultCache creates a result cache bounded by maxBytes,
// registering its counters (cache_result_*) in reg. Gauges over
// Bytes/Len are the caller's to register, so a disabled cache can read
// as zero.
func NewResultCache(maxBytes int64, reg *obs.Registry) *ResultCache {
	return &ResultCache{
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		hits: reg.Counter("cache_result_hits_total",
			"queries served from the semantic result cache"),
		misses: reg.Counter("cache_result_misses_total",
			"result cache probes that found no current entry"),
		evictions: reg.Counter("cache_result_evictions_total",
			"result cache entries evicted by the cost-aware LRU"),
		invalidated: reg.Counter("cache_result_invalidated_total",
			"result cache entries discarded because their catalog generation was replaced"),
		coldHits: reg.Counter("cache_cold_hits_total",
			"array runs under ingest that found the cube of their never-touched chunks"),
		coldMisses: reg.Counter("cache_cold_misses_total",
			"array runs under ingest that had to aggregate their never-touched chunks"),
	}
}

// Get returns the value cached under key.
func (c *ResultCache) Get(key string) (any, bool) {
	return c.get(key, c.hits, c.misses)
}

// GetCold is Get for the partial cubes PutCold stores, counted apart:
// finding one saves part of an engine run, it does not serve a query.
func (c *ResultCache) GetCold(key string) (any, bool) {
	return c.get(key, c.coldHits, c.coldMisses)
}

func (c *ResultCache) get(key string, hits, misses *obs.Counter) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		misses.Inc()
		return nil, false
	}
	c.lru.MoveToFront(el)
	hits.Inc()
	return el.Value.(*entry).val, true
}

// Put stores val under key. bytes is the entry's memory estimate; weight
// is the estimated I/O (page reads) a hit saves, which drives eviction
// order. Values larger than a quarter of the budget are not cached — one
// giant result must not flush the whole working set — and Put reports
// false.
func (c *ResultCache) Put(key string, val any, bytes int64, weight float64) bool {
	return c.put(&entry{key: key, val: val, bytes: bytes, weight: weight})
}

// PutCold is Put for a partial cube, told apart only by ColdBytes.
func (c *ResultCache) PutCold(key string, val any, bytes int64, weight float64) bool {
	return c.put(&entry{key: key, val: val, bytes: bytes, weight: weight, cold: true})
}

func (c *ResultCache) put(e *entry) bool {
	if e.bytes > c.maxBytes/4 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		c.removeLocked(el)
	}
	c.entries[e.key] = c.lru.PushFront(e)
	c.bytes += e.bytes
	if e.cold {
		c.coldBytes += e.bytes
	}
	c.evictLocked()
	return true
}

// AddImage charges n more bytes to the entry under key — a rendering of
// val its owner now keeps beside it — provided the entry still holds
// val. The bytes count against the budget like the entry's own and
// leave with it; an entry that was evicted or replaced meanwhile is not
// charged (its owner's bytes die with the last query reading them).
func (c *ResultCache) AddImage(key string, val any, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	e := el.Value.(*entry)
	if e.val != val {
		return
	}
	e.bytes += n
	e.image += n
	c.bytes += n
	c.imageBytes += n
	if e.cold {
		c.coldBytes += n
	}
	c.evictLocked()
}

// Remove discards the entry under key, if any: its owner knows nothing
// will ask for it again.
func (c *ResultCache) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
}

// evictLocked brings the cache back under its budget, always keeping
// the most recent entry.
func (c *ResultCache) evictLocked() {
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		c.removeLocked(c.evictVictimLocked())
		c.evictions.Inc()
	}
}

// evictVictimLocked picks the eviction victim: among up to
// evictionSample entries from the LRU tail, the one saving the least
// estimated I/O per byte.
func (c *ResultCache) evictVictimLocked() *list.Element {
	victim := c.lru.Back()
	best := victim.Value.(*entry).density()
	el := victim.Prev()
	for i := 1; i < evictionSample && el != nil && el != c.lru.Front(); i++ {
		if d := el.Value.(*entry).density(); d < best {
			victim, best = el, d
		}
		el = el.Prev()
	}
	return victim
}

// density is the eviction score: estimated page reads saved per byte
// retained.
func (e *entry) density() float64 {
	if e.bytes <= 0 {
		return e.weight
	}
	return e.weight / float64(e.bytes)
}

func (c *ResultCache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	c.imageBytes -= e.image
	if e.cold {
		c.coldBytes -= e.bytes
	}
}

// Clear discards every entry and counts them as invalidated: what the
// executor does to the cache of a catalog generation it replaces. A
// query still finishing under that generation may go on using the cache;
// nothing newer ever probes it.
func (c *ResultCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidated.Add(int64(c.lru.Len()))
	c.entries = make(map[string]*list.Element)
	c.lru.Init()
	c.bytes, c.imageBytes, c.coldBytes = 0, 0, 0
}

// Bytes reports the retained entry bytes.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// ImageBytes reports the part of Bytes charged through AddImage.
func (c *ResultCache) ImageBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.imageBytes
}

// ColdBytes reports the part of Bytes held by PutCold entries.
func (c *ResultCache) ColdBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coldBytes
}

// Len reports the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats is a point-in-time copy of one cache's counters.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Invalidated int64 `json:"invalidated"`
	Bytes       int64 `json:"bytes"`
	Entries     int64 `json:"entries"`
}

// Stats snapshots the cache counters.
func (c *ResultCache) Stats() Stats {
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

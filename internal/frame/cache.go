package frame

// Query-result cache: a small LRU keyed by (frame content hash, base
// selection hash, canonical query key). The frame hash is accumulated
// during Builder ingest and carried into every Snapshot, so two frames
// composed from the same profile sequence share keys — a recomposed
// campaign re-hits the cache of its previous composition — while an
// append changes the hash and makes every stale entry unreachable.
// Unreachable entries age out by LRU.

import (
	"container/list"
	"sync"
)

// cacheKey identifies one cached query result.
type cacheKey struct {
	frame uint64 // frame content hash
	sel   uint64 // base-selection hash (0 = full frame)
	query string // canonical query spelling
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// Cache is a thread-safe LRU of query results.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[cacheKey]*list.Element

	hits, misses, evictions uint64

	// side memoizes internal sub-results (the per-frame group table,
	// keyed by frame hash + group key) that several queries share — a
	// metric sweep over one GroupBy key resolves the table once. Not
	// counted in the hit/miss stats: entries here are never observable
	// answers, only work avoided. Bounded by wholesale reset.
	side map[cacheKey]any
}

type cacheEntry struct {
	key cacheKey
	val any
}

// NewCache returns an LRU holding at most capacity entries; capacity <= 0
// disables caching (every lookup misses, puts are dropped).
func NewCache(capacity int) *Cache {
	return &Cache{
		cap:     capacity,
		ll:      list.New(),
		entries: map[cacheKey]*list.Element{},
	}
}

func (c *Cache) get(k cacheKey) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

func (c *Cache) put(k cacheKey, v any) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

func (c *Cache) enabled() bool { return c != nil && c.cap > 0 }

func (c *Cache) sideGet(k cacheKey) (any, bool) {
	if c == nil || c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.side[k]
	return v, ok
}

func (c *Cache) sidePut(k cacheKey, v any) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.side == nil {
		c.side = map[cacheKey]any{}
	}
	if len(c.side) >= 4*c.cap+16 { // bounded; resets wholesale, never grows unchecked
		clear(c.side)
	}
	c.side[k] = v
}

// Clear drops every entry.
func (c *Cache) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.entries)
	clear(c.side)
}

// Stats snapshots the effectiveness counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
	}
}

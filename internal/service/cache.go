package service

import (
	"container/list"
	"sync"

	"graphstudy/internal/core"
	"graphstudy/internal/service/metrics"
)

// Key canonically identifies a run for caching and deduplication. Threads
// and timeout are deliberately excluded: they shape how fast an answer
// arrives, not what the answer is, so requests differing only in those
// share work and results.
type Key struct {
	App     core.App
	System  core.System
	Variant core.Variant
	Graph   string
	Scale   string
}

// resultCache is a fixed-capacity LRU of completed run results. Only OK
// results are stored — a TO under one deadline says nothing about the next
// request's deadline, and errors should re-execute. All methods are safe
// for concurrent use.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *cacheItem
	items    map[Key]*list.Element

	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter
}

type cacheItem struct {
	key Key
	res core.Result
}

// newResultCache builds a cache of the given capacity (<= 0 disables
// caching) and registers its counters and size gauge with the registry.
func newResultCache(capacity int, reg *metrics.Registry) *resultCache {
	c := &resultCache{
		capacity:  capacity,
		order:     list.New(),
		items:     map[Key]*list.Element{},
		hits:      reg.Counter("cache_hits"),
		misses:    reg.Counter("cache_misses"),
		evictions: reg.Counter("cache_evictions"),
	}
	reg.Gauge("cache_size", func() int64 { return int64(c.Len()) })
	return c
}

// Get returns the cached result for key, if any, and marks it recently used.
func (c *resultCache) Get(key Key) (core.Result, bool) {
	res, ok := c.recheck(key)
	if !ok {
		c.misses.Inc()
	}
	return res, ok
}

// recheck is Get for a key the same request has already missed: a hit
// counts, a second miss does not.
func (c *resultCache) recheck(key Key) (core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return core.Result{}, false
	}
	c.order.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheItem).res, true
}

// Put stores an OK result, evicting the least recently used entry when the
// cache is full. Non-OK results are ignored.
func (c *resultCache) Put(key Key, res core.Result) {
	if c.capacity <= 0 || res.Outcome != core.OK {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).res = res
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheItem).key)
		c.evictions.Inc()
	}
	c.items[key] = c.order.PushFront(&cacheItem{key: key, res: res})
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

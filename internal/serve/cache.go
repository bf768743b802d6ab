package serve

import (
	"container/list"
	"sync"

	"github.com/warehousekit/mvpp/internal/engine"
)

// cacheEntry is one cached query result.
type cacheEntry struct {
	key   string
	table *engine.Table
}

// resultCache is an LRU result cache keyed by the plan's cacheKey. It
// belongs to one served state: every entry was computed on that state's
// relation set, so an entry is valid exactly as long as its cache is
// reachable, and a superseded state takes its cache with it.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	byKey map[string]*list.Element
}

// newResultCache builds a cache holding up to capacity entries (0: the
// default); capacity < 0 disables caching (every get misses, every put is
// dropped).
func newResultCache(capacity int) *resultCache {
	if capacity == 0 {
		capacity = DefaultCacheCapacity
	}
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
	}
}

func (c *resultCache) get(key string) (*engine.Table, bool) {
	if c.cap < 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).table, true
}

func (c *resultCache) put(key string, table *engine.Table) {
	if c.cap < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).table = table
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, table: table})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

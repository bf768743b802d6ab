package serve

import (
	"sync"
	"sync/atomic"

	"github.com/warehousekit/mvpp/internal/engine"
)

// cacheRef names a result-cache entry: a slot, which every named query (and
// every ad-hoc plan equal to one) owns, or — with slot < 0 — an ad-hoc plan's
// cacheKey.
type cacheRef struct {
	slot int
	key  string
}

// cacheEntry is one cached query result. Every field but used is fixed once
// the entry is stored: replacing a result stores a new entry at the old one's
// ring position.
type cacheEntry struct {
	ref   cacheRef
	pos   int // index in the CLOCK ring
	table *engine.Table
	// used is the CLOCK reference bit: set by a hit, cleared by the hand.
	used atomic.Bool
}

// resultCache is a CLOCK result cache. It belongs to one served state: every
// entry was computed on that state's relation set, so an entry is valid
// exactly as long as its cache is reachable, and a superseded state takes its
// cache with it.
//
// A slot's entry is one atomic pointer, so a hit on a named query is one load
// (and a store of the reference bit when it is clear) and takes no lock.
// Ad-hoc entries live in a map under mu. Only a put writes: under mu, it
// places the entry in the one ring that slot and ad-hoc entries share, and
// when the ring is full the hand evicts the first entry whose reference bit
// is clear, clearing the bits it passes.
type resultCache struct {
	cap   int
	slots []atomic.Pointer[cacheEntry]

	mu    sync.Mutex
	adhoc map[string]*cacheEntry
	ring  []*cacheEntry // at most cap entries
	hand  int
}

// newResultCache builds a cache with the given number of slots holding up to
// capacity entries (0: the default); capacity < 0 disables caching (every get
// misses, every put is dropped).
func newResultCache(capacity, slots int) *resultCache {
	if capacity == 0 {
		capacity = DefaultCacheCapacity
	}
	return &resultCache{
		cap:   capacity,
		slots: make([]atomic.Pointer[cacheEntry], slots),
		adhoc: make(map[string]*cacheEntry),
	}
}

func (c *resultCache) get(ref cacheRef) (*engine.Table, bool) {
	if c.cap < 0 {
		return nil, false
	}
	var e *cacheEntry
	if ref.slot >= 0 {
		e = c.slots[ref.slot].Load()
	} else {
		c.mu.Lock()
		e = c.adhoc[ref.key]
		c.mu.Unlock()
	}
	if e == nil {
		return nil, false
	}
	if !e.used.Load() {
		e.used.Store(true)
	}
	return e.table, true
}

func (c *resultCache) put(ref cacheRef, table *engine.Table) {
	if c.cap < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &cacheEntry{ref: ref, table: table}
	if old := c.lookup(ref); old != nil {
		// A fresh result for a cached plan: it takes the old entry's place,
		// counted as a use.
		e.pos = old.pos
		e.used.Store(true)
	} else if len(c.ring) < c.cap {
		e.pos = len(c.ring)
		c.ring = append(c.ring, nil)
	} else {
		// One revolution at most: hits racing the hand may set a bit it has
		// just cleared, and the entry under the hand then goes regardless.
		for range c.ring {
			if !c.ring[c.hand].used.Load() {
				break
			}
			c.ring[c.hand].used.Store(false)
			c.hand = (c.hand + 1) % len(c.ring)
		}
		victim := c.ring[c.hand]
		c.store(victim.ref, nil)
		e.pos = victim.pos
		c.hand = (c.hand + 1) % len(c.ring)
	}
	c.ring[e.pos] = e
	c.store(ref, e)
}

// lookup and store read and write the entry ref names; callers hold mu.
func (c *resultCache) lookup(ref cacheRef) *cacheEntry {
	if ref.slot >= 0 {
		return c.slots[ref.slot].Load()
	}
	return c.adhoc[ref.key]
}

func (c *resultCache) store(ref cacheRef, e *cacheEntry) {
	switch {
	case ref.slot >= 0:
		c.slots[ref.slot].Store(e)
	case e == nil:
		delete(c.adhoc, ref.key)
	default:
		c.adhoc[ref.key] = e
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ring)
}

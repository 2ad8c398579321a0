package service

import (
	"sync/atomic"

	"abenet/internal/store"
)

// cacheEntry is one cached result plus its hit counter (how many
// submissions it has served). The counter lives in the memory tier only:
// it counts serves by *this* process, and restarts start it over.
type cacheEntry struct {
	result *Result
	hits   int
}

// tieredCache is the two-tier read path over finished results: a bounded
// in-memory LRU in front of an optional persistent store, both keyed on
// (ExecutionHash, seed). The memory tier and the hit counters belong to
// the service mutex; the persistent tier is read (load) and written
// (writeThrough) only outside it, so no submit, status read or cancel
// waits on a disk.
type tieredCache struct {
	mem     *store.Memory[*cacheEntry]
	persist store.Store[*Result] // nil = memory-only serving

	memHits     int          // submissions served from the memory tier
	persistHits int          // submissions served from the persistent tier
	persistErrs atomic.Int64 // failed persistent writes (results still served from memory)
}

func newTieredCache(maxMem int, persist store.Store[*Result]) *tieredCache {
	return &tieredCache{mem: store.NewMemory[*cacheEntry](maxMem), persist: persist}
}

// get returns the memory-tier entry for key, or nil, bumping its LRU
// position and counting the hit. The caller increments ent.hits — get
// only tracks which tier served. Callers hold s.mu.
func (c *tieredCache) get(key string) *cacheEntry {
	ent, ok := c.mem.Get(key)
	if !ok {
		return nil
	}
	c.memHits++
	return ent
}

// promote installs a result read off the persistent tier into the memory
// tier (with a fresh per-entry hit counter) and counts the store hit: the
// next hit is a memory hit. Callers hold s.mu.
func (c *tieredCache) promote(key string, res *Result) *cacheEntry {
	c.persistHits++
	ent := &cacheEntry{result: res}
	_ = c.mem.Put(key, ent)
	return ent
}

// put publishes a finished result to the memory tier. Refreshing an
// existing entry keeps its hit counter. Callers hold s.mu.
func (c *tieredCache) put(key string, res *Result) {
	if ent, ok := c.mem.Get(key); ok {
		ent.result = res
		return
	}
	_ = c.mem.Put(key, &cacheEntry{result: res})
}

// load reads key from the persistent tier (a miss when there is none).
// It runs outside s.mu.
func (c *tieredCache) load(key string) (*Result, bool) {
	if c.persist == nil {
		return nil, false
	}
	return c.persist.Get(key)
}

// writeThrough stores a published result in the persistent tier. It runs
// outside s.mu. A failure is counted and returned, not fatal: the result
// still serves from memory, and the slot heals on the next computation of
// the key.
func (c *tieredCache) writeThrough(key string, res *Result) error {
	if c.persist == nil {
		return nil
	}
	err := c.persist.Put(key, res)
	if err != nil {
		c.persistErrs.Add(1)
	}
	return err
}

// len returns the memory-tier entry count.
func (c *tieredCache) len() int { return c.mem.Len() }

// persistLen returns the persistent-tier entry count (0 when disabled).
// It runs outside s.mu.
func (c *tieredCache) persistLen() int {
	if c.persist == nil {
		return 0
	}
	return c.persist.Len()
}

// persistReadErrors returns the corrupt entries the persistent tier has read
// back, for a tier that counts them (store.Disk); 0 otherwise. The count is
// not part of store.Store, so that any Get/Put/Len/Close store stays a tier.
func (c *tieredCache) persistReadErrors() int {
	if counter, ok := c.persist.(interface{ ReadErrors() int }); ok {
		return counter.ReadErrors()
	}
	return 0
}

// close releases both tiers.
func (c *tieredCache) close() {
	_ = c.mem.Close()
	if c.persist != nil {
		_ = c.persist.Close()
	}
}

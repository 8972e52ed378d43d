package whatif

import (
	"container/list"
	"fmt"
	"sync"
)

// Cache is the content-addressed baseline cache: key = sha256 over the
// workload identity (trace bytes or canonical spec JSON) and the built
// cluster.Config (see cacheKey), value = the fully computed baseline arm.
// Eviction is LRU under a byte budget — entry sizes are the JSON encoding
// of the stored baseline, a faithful proxy for the retained heap since the
// stored structs are plain data.
//
// Concurrent requests for the same key coalesce: the first caller computes
// while the rest wait for its result, so N simultaneous identical sessions
// pay for one baseline and count N-1 cache hits. An entry larger than the
// whole budget is returned but not retained (caching it would evict
// everything else for a single entry).
type Cache struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight

	hits, misses, evictions uint64
}

// flight is one in-progress baseline computation; followers wait on done.
type flight struct {
	done chan struct{}
	val  any
	size int64
	err  error
}

// centry is one resident cache entry.
type centry struct {
	key  string
	val  any
	size int64
}

// NewCache creates a cache with the given byte budget. A budget <= 0
// disables caching entirely: every Do computes, nothing is retained.
func NewCache(budget int64) *Cache {
	return &Cache{
		budget:   budget,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// CacheStats is a point-in-time counter snapshot, served by /healthz.
type CacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	Entries     int    `json:"entries"`
	UsedBytes   int64  `json:"used_bytes"`
	BudgetBytes int64  `json:"budget_bytes"`
}

// Stats returns a consistent snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Entries:     c.ll.Len(),
		UsedBytes:   c.used,
		BudgetBytes: c.budget,
	}
}

// Do returns the value cached under key, computing and inserting it on a
// miss. compute returns the value, its retained size in bytes and an
// error; errors are returned to every coalesced waiter and nothing is
// cached. The second result reports whether the value came from the cache
// (a resident entry or a coalesced in-flight computation).
func (c *Cache) Do(key string, compute func() (any, int64, error)) (any, bool, error) {
	if c == nil || c.budget <= 0 {
		v, _, err := compute()
		return v, false, err
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*centry).val
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return f.val, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	// A panicking compute must not strand coalesced waiters: release them
	// with an error, then rethrow for the caller's recover.
	finished := false
	defer func() {
		if !finished {
			c.mu.Lock()
			delete(c.inflight, key)
			c.mu.Unlock()
			f.err = fmt.Errorf("whatif: baseline computation panicked")
			close(f.done)
		}
	}()
	f.val, f.size, f.err = compute()
	finished = true

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.insert(key, f.val, f.size)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// insert adds one entry at the MRU position and evicts from the LRU end
// until the budget holds again. Called with c.mu held.
func (c *Cache) insert(key string, val any, size int64) {
	if size > c.budget {
		return // larger than the whole cache: serve it, don't retain it
	}
	c.items[key] = c.ll.PushFront(&centry{key: key, val: val, size: size})
	c.used += size
	for c.used > c.budget {
		back := c.ll.Back()
		if back == nil || back == c.ll.Front() {
			break
		}
		e := back.Value.(*centry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.used -= e.size
		c.evictions++
	}
}

package whatif

import (
	"container/list"
	"errors"
	"sync"
)

// Cache is the service's content-addressed cache. It holds two kinds of
// entry under one byte budget:
//
//   - a session's whole rendered Report, keyed by what the session asked
//     for: the canonical spec JSON, its built cluster.Config, the backend
//     and the arm list, or an upload's digest, its display label and the
//     arm list;
//   - one simulation a session ran: a core.Runner job (keyed by the job's
//     content, see core.Memo) or one trace replay (keyed by the upload's
//     digest and the replayed platform's config).
//
// Names enter only report keys: a scenario's name and a trace's label
// appear in rendered titles and nowhere in a simulation, so two sessions
// that differ only in them share every simulation. A repeated query runs
// nothing, and an overlapping one runs only the simulations new to it.
// Eviction is LRU under the byte budget; an entry's size is its JSON
// encoding, a faithful proxy for the retained heap since every entry is
// plain data.
//
// Concurrent requests for the same key coalesce: the first caller computes
// while the rest wait for its result, so N simultaneous identical requests
// pay for one computation and count N-1 cache hits. An entry larger than
// the whole budget is returned but not retained (caching it would evict
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

// flight is one in-progress computation; followers wait on done.
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

// errPanicked is the error coalesced waiters get when the computation they
// waited on panicked.
var errPanicked = errors.New("whatif: the computation panicked")

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
			f.err = errPanicked
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

// Package lru provides the small bounded cache behind the communication
// plan layer. Redistribution schedules, gather schedules, and streaming
// piece plans are all keyed by immutable identities (distribution
// pointers, communicator pointers, section signatures); at steady state a
// periodic checkpoint replays the same handful of keys every interval, so
// a tiny LRU turns plan construction from a per-collective cost into a
// once-per-configuration cost. Eviction doubles as the invalidation
// story: after a reconfigured restart the old communicator's entries are
// unreachable (fresh pointers make fresh keys) and age out under the
// capacity bound.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a mutex-guarded fixed-capacity LRU map. The zero value is not
// usable; construct with New. All methods are safe for concurrent use —
// the SPMD tasks of an in-process application share one cache.
type Cache[K comparable, V any] struct {
	mu           sync.Mutex
	max          int
	ll           *list.List // front = most recently used
	items        map[K]*list.Element
	hits, misses uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding at most max entries. max < 1 panics.
func New[K comparable, V any](max int) *Cache[K, V] {
	if max < 1 {
		panic("lru: non-positive capacity")
	}
	return &Cache[K, V]{
		max:   max,
		ll:    list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the cached value for k and whether it was present,
// promoting the entry to most recently used. Misses are counted here, so
// callers that build-then-Add on a miss get accurate hit/miss stats.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.hits++
		c.ll.MoveToFront(e)
		return e.Value.(*entry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Add inserts (or replaces) the value for k as most recently used,
// evicting the least recently used entry if the cache is over capacity.
// Build work should happen outside the cache lock: the idiom is Get,
// build on miss, Add.
func (c *Cache[K, V]) Add(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		e.Value.(*entry[K, V]).val = v
		c.ll.MoveToFront(e)
		return
	}
	c.items[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v})
	if c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry[K, V]).key)
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Flush drops every entry. Stats are preserved; tests and benchmarks use
// Flush to force the cold path.
func (c *Cache[K, V]) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

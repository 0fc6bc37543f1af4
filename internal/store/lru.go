package store

import (
	"container/list"
	"sync"
)

// LRU is a thread-safe least-recently-used result cache. MapRat caches the
// mining result for each (query, settings, window) fingerprint so repeated
// demo interactions — the common case at a demo booth — skip the NP-hard
// optimization entirely (§2.3).
type LRU struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses uint64
}

type lruEntry struct {
	key string
	val any
}

// NewLRU builds a cache bounded to max entries (max must be positive).
func NewLRU(max int) *LRU {
	if max <= 0 {
		max = 1
	}
	return &LRU{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value for key and marks it most recently used.
func (c *LRU) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry).val, true
	}
	c.misses++
	return nil, false
}

// Peek returns the cached value for key without counting a lookup or
// marking it used: a re-check of a key whose Get just missed.
func (c *LRU) Peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*lruEntry).val, true
	}
	return nil, false
}

// Put stores a value, evicting the least recently used entry when full.
func (c *LRU) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&lruEntry{key: key, val: val})
	c.items[key] = el
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit and miss counts.
func (c *LRU) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

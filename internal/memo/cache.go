package memo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Stats is a point-in-time snapshot of a cache's counters. WallSaved sums
// the recorded simulate cost of every hit — the wall time the cache's
// consumers did not spend.
type Stats struct {
	Hits   uint64
	Misses uint64
	Stores uint64
	// BytesWritten is always 0: entries are held by reference and never
	// serialized. The field remains for callers that report it.
	BytesWritten uint64
	WallSaved    time.Duration
}

// String renders the snapshot as the CLI's -cache-stats line.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d stores, %s wall saved",
		s.Hits, s.Misses, s.Stores, s.WallSaved.Round(time.Millisecond))
}

// entry is one cached result.
type entry struct {
	val  any
	cost time.Duration
}

// Cache is an in-process content-addressed result store, safe for
// concurrent use by the runner pool. It holds each result by reference for
// the life of the process, so every entry was computed by the running
// binary. Entries are immutable once stored: a key can only ever map to an
// identical result, so last-write-wins races are harmless.
type Cache struct {
	mu  sync.RWMutex
	mem map[Key]entry

	hits, misses, stores atomic.Uint64
	wallSavedNS          atomic.Int64
}

// New builds an empty cache. dir must be "": results are never persisted,
// because a stored result can only be trusted by the binary that computed
// it.
func New(dir string) (*Cache, error) {
	if dir != "" {
		return nil, fmt.Errorf("memo: on-disk cache %q is not supported; results live in memory only", dir)
	}
	return &Cache{mem: map[Key]entry{}}, nil
}

// Get looks the key up. A hit returns the stored value — shared with every
// other hit and with the caller that stored it, so read-only — and adds its
// recorded simulate cost to WallSaved.
func (c *Cache) Get(k Key) (v any, ok bool) {
	c.mu.RLock()
	e, ok := c.mem[k]
	c.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.wallSavedNS.Add(int64(e.cost))
	return e.val, true
}

// Put stores a freshly computed result under its key. cost is the wall
// time the computation took, paid back into WallSaved on every future hit.
// The value is retained by reference; neither the caller nor any later
// reader may mutate it.
func (c *Cache) Put(k Key, v any, cost time.Duration) {
	if k.IsZero() {
		return
	}
	c.mu.Lock()
	_, dup := c.mem[k]
	if !dup {
		c.mem[k] = entry{val: v, cost: cost}
	}
	c.mu.Unlock()
	if !dup {
		c.stores.Add(1)
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stores:    c.stores.Load(),
		WallSaved: time.Duration(c.wallSavedNS.Load()),
	}
}

// Package plancache implements the shared compiled-plan cache of the
// serving layer: an LRU keyed by SQL text plus the compile options that
// shape the emitted MAL (partition count, optimizer pipeline). Repeated
// statements skip the whole parse → bind → compile → optimize chain —
// MonetDB keeps the same structure per session in its MAL block cache;
// here one cache is shared by every session of a DB so concurrent
// clients warm it for each other.
//
// Cached plans are shared, not copied: a plan handed out by Get is
// executed concurrently by many queries, so holders must treat it as
// immutable (the engine only reads plans; optimizer passes run on
// clones before insertion).
package plancache

import (
	"container/list"
	"sync"

	"stethoscope/internal/dot"
	"stethoscope/internal/mal"
	"stethoscope/internal/metrics"
	"stethoscope/internal/optimizer"
)

// DefaultSize is the cache capacity the facade and the standalone
// server use unless configured otherwise.
const DefaultSize = 256

// Key identifies one compiled plan. Two queries share a plan only when
// every field matches.
type Key struct {
	// SQL is the statement text, byte for byte (no normalization —
	// differing whitespace compiles twice, which is cheap and safe).
	SQL string
	// Partitions is the requested mitosis partition count — normalized
	// by the caller (out-of-range values clamp to 1 before key
	// construction, so partitions=0 can never alias the partitions=1
	// plan under a second key), with the adaptive sentinel
	// (stethoscope.Auto) as its own key value: the resolved fan-out of
	// an auto compilation lives in Entry.Partitions.
	Partitions int
	// Morsel selects the morsel-driven lowering, which emits a
	// different plan shape (fragments + mat.morsel) than the static
	// mitosis lowering for the same SQL and partition count. The morsel
	// size is a runtime engine option, not part of the key: changing it
	// never recompiles.
	Morsel bool
	// Passes names the optimizer pipeline, e.g. "cse,matfold,deadcode".
	Passes string
}

// Entry is a cached compilation: the optimized plan and what the
// optimizer did to it, plus a holder for artifacts derived from the
// plan on demand.
type Entry struct {
	Plan *mal.Plan
	Opt  optimizer.Stats
	// Partitions is the mitosis fan-out actually compiled into the
	// plan. It equals Key.Partitions except for auto compilations,
	// where the key carries the sentinel and this carries the
	// resolution.
	Partitions int
	// TuneReason records why an auto compilation chose its fan-out
	// (empty for explicit partition counts). Memoized here so cache
	// hits still report the reason in Result.Stats and the history.
	TuneReason string
	// Rows memoizes the bound tree's driver rows (algebra.DriverRows)
	// for compilations that need a per-run adaptive resolution after
	// the cache hit — the Auto morsel size is chosen at execution time
	// from these rows without re-binding the query. Zero when the
	// compilation never measured them.
	Rows int
	// Aux memoizes derived per-plan artifacts (e.g. the dot export the
	// history store records per run). It lives and dies with the cache
	// entry, so memoized artifacts never outlive their plan. Fill it
	// when inserting (&Aux{}); it is nil for entries that never needed
	// one.
	Aux *Aux
}

// Aux memoizes expensive artifacts derived from an immutable cached
// plan. It is safe for concurrent use by every session sharing the
// entry.
type Aux struct {
	dotOnce sync.Once
	dot     string
}

// Dot returns the memoized dot text, rendering it on first use.
func (a *Aux) Dot(render func() string) string {
	a.dotOnce.Do(func() { a.dot = render() })
	return a.dot
}

// DotText renders a plan's dot-file text, memoized in aux when one
// exists — shared by the history record (runner.Run) and the server's
// TRACE stream, so a cached plan's dot export is rendered once no
// matter how many sessions trace or record it.
func DotText(plan *mal.Plan, aux *Aux) string {
	render := func() string { return dot.Export(plan).Marshal() }
	if aux == nil {
		return render()
	}
	return aux.Dot(render)
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits      int64 // Get calls that found the plan
	Misses    int64 // Get calls that did not
	Evictions int64 // entries displaced by capacity pressure
	Len       int   // entries currently cached
	Capacity  int   // maximum entries
}

// HitRate returns hits / (hits + misses), 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a fixed-capacity LRU over compiled plans. It is safe for
// concurrent use by any number of sessions.
type Cache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *slot
	byKey    map[Key]*list.Element

	// Effectiveness counters. Standalone metric cells by default;
	// Instrument swaps in registry-owned cells so the cache's own
	// accounting and the exposition endpoint read the same numbers.
	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter
}

type slot struct {
	key   Key
	entry Entry
}

// New returns a cache holding up to capacity plans. Capacity < 1 is
// clamped to 1; callers that want caching off should simply not consult
// a cache.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity:  capacity,
		order:     list.New(),
		byKey:     make(map[Key]*list.Element, capacity),
		hits:      &metrics.Counter{},
		misses:    &metrics.Counter{},
		evictions: &metrics.Counter{},
	}
}

// Instrument re-homes the cache's counters into the registry (under
// stetho_plancache_*) and registers occupancy/capacity gauges. Call
// before serving: counts recorded before Instrument stay in the old
// cells and are not carried over.
func (c *Cache) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	c.hits = reg.Counter("stetho_plancache_hits_total")
	c.misses = reg.Counter("stetho_plancache_misses_total")
	c.evictions = reg.Counter("stetho_plancache_evictions_total")
	c.mu.Unlock()
	reg.GaugeFunc("stetho_plancache_entries", func() int64 { return int64(c.Len()) })
	reg.GaugeFunc("stetho_plancache_capacity", func() int64 { return int64(c.capacity) })
}

// Get looks the key up, promoting it to most recently used on a hit.
func (c *Cache) Get(k Key) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses.Inc()
		return Entry{}, false
	}
	c.hits.Inc()
	c.order.MoveToFront(el)
	return el.Value.(*slot).entry, true
}

// Put inserts or refreshes the entry, evicting the least recently used
// plan when the cache is full.
func (c *Cache) Put(k Key, e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value.(*slot).entry = e
		c.order.MoveToFront(el)
		return
	}
	c.byKey[k] = c.order.PushFront(&slot{key: k, entry: e})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*slot).key)
		c.evictions.Inc()
	}
}

// Purge drops every entry; the hit/miss/eviction counters keep counting.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.byKey = make(map[Key]*list.Element, c.capacity)
}

// Len reports the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Len:       c.order.Len(),
		Capacity:  c.capacity,
	}
}

// Keys returns the cached keys from most to least recently used
// (diagnostics and tests).
func (c *Cache) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Key, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*slot).key)
	}
	return out
}

// Package sharedwork is the serving layer's work-deduplication
// substrate: where internal/plancache shares *compilation* across
// sessions, this package shares *execution*. Two mechanisms, composed
// by internal/runner (runner.Do) for every front end:
//
//   - Flight: an in-flight execution registry with single-flight
//     semantics. Concurrent executions whose normalized key (SQL text +
//     compile geometry) matches an in-flight run attach to it and
//     receive the leader's Outcome instead of running the plan again —
//     the GLADE multi-query-optimization direction reduced to its
//     serving-path core. 64 identical concurrent statements run the
//     scan once.
//
//   - ResultCache: a small TTL'd LRU over completed Outcomes for
//     idempotent repeated statements, keyed exactly like the Flight.
//     Off by default; the facade invalidates it whenever the dataset
//     can change (Persist, dataset swap).
//
// Key discipline: the key extends the plan-cache key (SQL, partitions,
// morsel mode, optimizer passes) with the resolved morsel size, because
// partition and morsel geometry decide how float aggregates
// re-associate and therefore the result bytes. The worker count is
// deliberately excluded: the combine stage packs partial results in
// slice/morsel order, so scheduling parallelism never changes bytes —
// a 4-worker follower may attach to an 8-worker leader and receive a
// byte-identical result.
//
// Sharing discipline: an Outcome handed to more than one consumer is
// immutable. Its engine.Result is read-only by construction; its Events
// slice must be COPIED by every consumer that feeds it to an owning
// consumer (trace.FromEventsOwned takes ownership and may reorder in
// place). Flight.Do reports how many followers attached so leaders know
// whether their own copy is required.
package sharedwork

import (
	"container/list"
	"context"
	"sync"
	"time"

	"stethoscope/internal/engine"
	"stethoscope/internal/metrics"
	"stethoscope/internal/profiler"
)

// Key identifies one execution for deduplication and result reuse. Two
// executions share work only when every field matches; see the package
// comment for why workers are excluded and morsel size is not.
type Key struct {
	// SQL is the statement text, byte for byte (no normalization —
	// matching the plan-cache discipline).
	SQL string
	// Partitions is the requested mitosis fan-out, normalized by the
	// caller, with the adaptive Auto sentinel as its own key value (its
	// resolution is deterministic per catalog, so two Auto requests
	// resolve identically).
	Partitions int
	// Morsel selects the morsel-driven lowering.
	Morsel bool
	// MorselRows is the resolved morsel size (0 when Morsel is false).
	// Unlike the plan cache — where the size is a runtime option — the
	// size shapes per-morsel partial aggregates and is part of result
	// identity.
	MorselRows int
	// Passes names the optimizer pipeline.
	Passes string
}

// Outcome is one completed execution in transport form: everything a
// deduplicated or cached consumer needs to build its own Result without
// re-running the plan. Outcomes handed to multiple consumers are
// immutable; Events must be copied before any owning use (see the
// package comment).
type Outcome struct {
	Res    *engine.Result
	Events []profiler.Event
	// Elapsed is the leader's wall-clock execution time; attached and
	// cached consumers report it as-is (they did not run anything).
	Elapsed time.Duration
	// RunID is the durable-history id of the execution that actually
	// ran. Shared work shares its history record: every attached or
	// cached consumer's Stats points at the same run.
	RunID uint64

	// The leader's resolved execution settings, echoed into every
	// consumer's Stats so a shared result still reports the geometry it
	// was produced with.
	Partitions int
	Workers    int
	MorselRows int
	AutoTuned  bool
	TuneReason string
	CacheHit   bool
}

// CloneEvents returns a private copy of the outcome's event slice, the
// form required before handing events to an owning consumer such as
// trace.FromEventsOwned.
func (o *Outcome) CloneEvents() []profiler.Event {
	if len(o.Events) == 0 {
		return nil
	}
	out := make([]profiler.Event, len(o.Events))
	copy(out, o.Events)
	return out
}

// call is one in-flight execution in the Flight registry.
type call struct {
	done    chan struct{}
	out     *Outcome
	err     error
	waiters int // followers attached; read by the leader after removal
}

// Flight is the in-flight execution registry: a single-flight over
// Keys. It is safe for concurrent use by any number of sessions.
type Flight struct {
	mu    sync.Mutex
	calls map[Key]*call

	// led counts executions that ran as flight leaders; attached counts
	// executions served by waiting on a leader. Standalone cells by
	// default, re-homed by Instrument.
	led      *metrics.Counter
	attached *metrics.Counter
}

// NewFlight returns an empty registry.
func NewFlight() *Flight {
	return &Flight{
		calls:    map[Key]*call{},
		led:      &metrics.Counter{},
		attached: &metrics.Counter{},
	}
}

// Instrument re-homes the flight's counters into the registry (under
// stetho_sharedwork_*). Call before serving; counts recorded earlier
// stay in the old cells.
func (f *Flight) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	f.mu.Lock()
	f.led = reg.Counter("stetho_sharedwork_led_total")
	f.attached = reg.Counter("stetho_sharedwork_attached_total")
	f.mu.Unlock()
}

// Do executes run under single-flight semantics for key. The first
// caller for a key becomes the leader: it runs the function inline and
// its outcome is handed to every follower that arrived while it ran.
// Followers block until the leader finishes (or their own ctx is done)
// and report attached=true; a follower never observes a partially
// written Outcome. waiters reports, on the leader path only, how many
// followers attached — a leader with waiters > 0 must treat its
// outcome's Events as shared (copy before owning use).
//
// The registry entry is removed before the leader's outcome is
// published, so a caller arriving after completion always leads a fresh
// run — the Flight dedupes concurrency, it never caches.
//
// Leader errors propagate to followers as-is. A follower whose leader
// was canceled should re-run solo if its own ctx is still live; the
// Flight cannot distinguish the leader's cancellation from the
// follower's, so that policy belongs to the caller.
func (f *Flight) Do(ctx context.Context, key Key, run func() (*Outcome, error)) (out *Outcome, err error, attached bool, waiters int) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		c.waiters++
		f.attached.Inc()
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.out, c.err, true, 0
		case <-ctx.Done():
			return nil, ctx.Err(), true, 0
		}
	}
	c := &call{done: make(chan struct{})}
	f.calls[key] = c
	f.led.Inc()
	f.mu.Unlock()

	c.out, c.err = run()

	f.mu.Lock()
	delete(f.calls, key)
	waiters = c.waiters
	f.mu.Unlock()
	close(c.done)
	return c.out, c.err, false, waiters
}

// InFlight reports the number of distinct keys currently executing
// (diagnostics and the occupancy gauge).
func (f *Flight) InFlight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// Led and Attached expose the counters (tests and DBStats).
func (f *Flight) Led() int64      { return f.led.Load() }
func (f *Flight) Attached() int64 { return f.attached.Load() }

// CacheStats is a point-in-time snapshot of result-cache
// effectiveness.
type CacheStats struct {
	Hits          int64 // Get calls served from the cache
	Misses        int64 // Get calls that found nothing live
	Evictions     int64 // entries displaced by capacity pressure
	Expirations   int64 // entries dropped past their TTL
	Invalidations int64 // entries dropped by Purge (dataset change)
	Len           int   // entries currently cached
	Capacity      int   // maximum entries
	TTL           time.Duration
}

// ResultCache is a fixed-capacity LRU of completed Outcomes with a
// per-entry TTL. Expiry is lazy (checked on Get) plus opportunistic on
// Put, so an idle cache holds expired entries but never serves them.
// It is safe for concurrent use.
type ResultCache struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration
	now      func() time.Time
	order    *list.List // front = most recently used; values are *rcSlot
	byKey    map[Key]*list.Element

	hits          *metrics.Counter
	misses        *metrics.Counter
	evictions     *metrics.Counter
	expirations   *metrics.Counter
	invalidations *metrics.Counter
}

type rcSlot struct {
	key     Key
	out     *Outcome
	expires time.Time
}

// NewResultCache returns a cache holding up to capacity outcomes, each
// live for ttl after insertion. Capacity < 1 clamps to 1; ttl <= 0
// means entries never expire by time (invalidation still applies).
func NewResultCache(capacity int, ttl time.Duration) *ResultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ResultCache{
		capacity:      capacity,
		ttl:           ttl,
		now:           time.Now,
		order:         list.New(),
		byKey:         make(map[Key]*list.Element, capacity),
		hits:          &metrics.Counter{},
		misses:        &metrics.Counter{},
		evictions:     &metrics.Counter{},
		expirations:   &metrics.Counter{},
		invalidations: &metrics.Counter{},
	}
}

// SetClock overrides the time source (tests exercising TTL expiry with
// a fake clock). Call before the cache is shared.
func (c *ResultCache) SetClock(now func() time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

// Instrument re-homes the cache's counters into the registry (under
// stetho_resultcache_*) and registers occupancy/capacity gauges.
func (c *ResultCache) Instrument(reg *metrics.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.mu.Lock()
	c.hits = reg.Counter("stetho_resultcache_hits_total")
	c.misses = reg.Counter("stetho_resultcache_misses_total")
	c.evictions = reg.Counter("stetho_resultcache_evictions_total")
	c.expirations = reg.Counter("stetho_resultcache_expirations_total")
	c.invalidations = reg.Counter("stetho_resultcache_invalidations_total")
	c.mu.Unlock()
	reg.GaugeFunc("stetho_resultcache_entries", func() int64 { return int64(c.Len()) })
	reg.GaugeFunc("stetho_resultcache_capacity", func() int64 { return int64(c.capacity) })
}

// Get returns the live cached outcome for the key, promoting it on a
// hit. Expired entries are removed and reported as misses. Nil caches
// always miss, so call sites need no nil branch.
func (c *ResultCache) Get(k Key) (*Outcome, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	s := el.Value.(*rcSlot)
	if c.ttl > 0 && !c.now().Before(s.expires) {
		c.order.Remove(el)
		delete(c.byKey, k)
		c.expirations.Inc()
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.order.MoveToFront(el)
	return s.out, true
}

// Put inserts or refreshes the outcome, restarting its TTL and evicting
// the least recently used entry under capacity pressure. Nil caches
// no-op.
func (c *ResultCache) Put(k Key, out *Outcome) {
	if c == nil || out == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	expires := time.Time{}
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	if el, ok := c.byKey[k]; ok {
		s := el.Value.(*rcSlot)
		s.out, s.expires = out, expires
		c.order.MoveToFront(el)
		return
	}
	c.byKey[k] = c.order.PushFront(&rcSlot{key: k, out: out, expires: expires})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*rcSlot).key)
		c.evictions.Inc()
	}
}

// Purge invalidates every entry — the dataset-change hook (Persist,
// dataset swap). Dropped entries count as invalidations, not
// evictions.
func (c *ResultCache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations.Add(int64(c.order.Len()))
	c.order.Init()
	c.byKey = make(map[Key]*list.Element, c.capacity)
}

// Len reports the number of cached outcomes (including not-yet-swept
// expired entries).
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the counters. A nil cache reports zeros.
func (c *ResultCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Expirations:   c.expirations.Load(),
		Invalidations: c.invalidations.Load(),
		Len:           c.order.Len(),
		Capacity:      c.capacity,
		TTL:           c.ttl,
	}
}

// Shared bundles the two mechanisms as the facade and its servers pass
// them around: a Flight (always present once a DB is open) and an
// optional ResultCache (nil unless WithResultCache configured one).
type Shared struct {
	Flight *Flight
	Cache  *ResultCache
}

// Instrument wires both components into the registry.
func (s *Shared) Instrument(reg *metrics.Registry) {
	if s == nil {
		return
	}
	s.Flight.Instrument(reg)
	s.Cache.Instrument(reg)
}

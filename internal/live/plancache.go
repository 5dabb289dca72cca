package live

import (
	"container/list"
	"sync"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
)

// The plan cache is the one memo of compiled queries in the repository.
// Engines are pure (engine.Planner); every repeated query — a server
// /query request, a live.Engine.Open from rdfq or the repro API, a
// cluster worker's /shard/query drain — reuses its compiled plan through
// this cache, keyed by (epoch, engine, engine options, α-normalized query
// text). Keys are text, never pointers, so two separate parses of the same
// query share one entry. The paper times EmptyHeaded with query
// compilation excluded; this cache is where that compilation is kept.

// CacheStats is a point-in-time snapshot of the plan cache's counters.
type CacheStats struct {
	Capacity  int    `json:"capacity"`
	Size      int    `json:"size"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// defaultPlanCacheSize is a new store's plan-cache capacity.
const defaultPlanCacheSize = 256

// evictScan bounds how many least-recently-used entries the eviction pass
// scores. Recency prefilters the candidates; cost×frequency picks the
// victim among them, so one ancient-but-expensive plan survives bursts of
// cheap one-off queries without the scan ever being O(cache).
const evictScan = 16

// PlanCache is a concurrency-safe cache from plan keys to prepared
// queries. Lookup order is LRU, but eviction is not pure recency: among
// the evictScan least-recently-used entries, the victim is the one with the
// lowest estimated-cost × use-count score — dropping a plan that was
// expensive to compile-and-run and is hit often costs the most to
// re-establish, so recency alone (which a scan of cheap ad-hoc queries can
// flush) is the wrong signal. Concurrent misses for the same key may both
// compile and race to add; the second add wins and the first compilation is
// discarded — harmless (plans are immutable) and simpler than per-key
// singleflight.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	// epoch is the oldest epoch still cached: a base swap drops every older
	// entry, and a compile that raced the swap is not re-added.
	epoch     uint64
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key  string
	pq   *Prepared
	uses uint64
}

func newPlanCache(capacity int) *PlanCache {
	c := &PlanCache{ll: list.New(), items: map[string]*list.Element{}}
	c.Resize(capacity)
	return c
}

// Resize sets the capacity (minimum 1), evicting down to it.
func (c *PlanCache) Resize(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = max(capacity, 1)
	c.evict()
}

// get returns the cached prepared query for key, marking it most recently
// used, and records a hit or miss.
func (c *PlanCache) get(key string) (*Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	ent := el.Value.(*cacheEntry)
	ent.uses++
	c.ll.MoveToFront(el)
	return ent.pq, true
}

// add inserts (or refreshes) key, evicting the lowest cost×frequency entry
// among the least recently used when over capacity. Entries of a dropped
// epoch are not cached.
func (c *PlanCache) add(key string, pq *Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pq.epoch < c.epoch {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).pq = pq
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, pq: pq})
	c.evict()
}

func (c *PlanCache) evict() {
	for c.ll.Len() > c.capacity {
		victim := c.ll.Back()
		best := score(victim.Value.(*cacheEntry))
		for el, i := victim.Prev(), 1; el != nil && i < evictScan; el, i = el.Prev(), i+1 {
			if s := score(el.Value.(*cacheEntry)); s < best {
				victim, best = el, s
			}
		}
		c.remove(victim)
		c.evictions++
	}
}

func (c *PlanCache) remove(el *list.Element) {
	c.ll.Remove(el)
	delete(c.items, el.Value.(*cacheEntry).key)
}

// dropBefore removes every entry compiled before epoch. No key can match
// them again, and each one keeps its old base reachable.
func (c *PlanCache) dropBefore(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = max(c.epoch, epoch)
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEntry).pq.epoch < c.epoch {
			c.remove(el)
		}
		el = next
	}
}

// score is the keep-priority of an entry: estimated execution cost times
// observed hit frequency, with +1 floors so zero-cost entries (queries the
// cost model cannot price) and never-hit entries still rank by the other
// factor.
func score(e *cacheEntry) float64 {
	return (e.pq.cost + 1) * float64(e.uses+1)
}

// Stats snapshots the counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity:  c.capacity,
		Size:      c.ll.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// Prepared is one plan-cache entry: the whole compiled tree of one
// α-normalized query for one engine at one epoch — the auto router's
// class, the GHD/LFTJ plan, or the scatter plan with its per-shard
// sub-plans, wire texts and memoized build tables. It is immutable apart
// from lazily built parts, and shared by concurrent executions.
type Prepared struct {
	bgp   *query.BGP
	epoch uint64
	plan  engine.Plan
	cost  float64 // cost-model estimate; drives eviction priority

	// Profiled is false when the cost model could not price the query (it
	// still runs; EXPLAIN just has no cost section). Class is the cheapest
	// engine class and Costs the per-class estimates it was chosen from.
	Profiled bool
	Class    plan.EngineClass
	Costs    map[string]float64

	// bare is the DISTINCT-stripped plan the overlay streams its base term
	// from, compiled on first use.
	bareOnce sync.Once
	bare     engine.Plan
	bareErr  error
}

// Compiled reports whether the engine compiled a plan, rather than
// planning inside every execution.
func (pq *Prepared) Compiled() bool {
	_, perExec := pq.plan.(*query.BGP)
	return !perExec
}

// Scatter is the scatter plan's summary, or nil when the engine is not
// sharded.
func (pq *Prepared) Scatter() *shard.ExplainPlan { return shard.Explain(pq.plan) }

// price fills the cost-model fields: from the plan's own profile when the
// engine routed by one (the auto engine), else from one profile over st.
func (pq *Prepared) price(st *store.Store) {
	var prof plan.Profile
	if r, ok := pq.plan.(interface{ Profile() plan.Profile }); ok {
		prof = r.Profile()
	} else {
		var err error
		if prof, err = plan.ProfileQuery(pq.bgp, st); err != nil {
			return
		}
	}
	pq.Class, pq.cost = prof.ChooseClass()
	pq.Profiled = true
	pq.Costs = make(map[string]float64, len(plan.Classes()))
	for _, c := range plan.Classes() {
		pq.Costs[c.String()] = prof.Cost(c)
	}
}

// basePlan returns the plan the overlay streams its base term from: the
// merge needs the base multiset, so a DISTINCT query gets a stripped twin.
// inner must be the engine that compiled pq.
func (pq *Prepared) basePlan(inner engine.Engine) (engine.Plan, error) {
	if !pq.bgp.Distinct {
		return pq.plan, nil
	}
	pq.bareOnce.Do(func() {
		bare := *pq.bgp
		bare.Distinct = false
		pq.bare, pq.bareErr = engine.Compile(inner, &bare)
	})
	return pq.bare, pq.bareErr
}

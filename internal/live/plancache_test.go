package live

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/store"
)

func TestPlanCacheLRU(t *testing.T) {
	c := newPlanCache(2)
	a, b, d := &Prepared{}, &Prepared{}, &Prepared{}
	c.add("a", a)
	c.add("b", b)
	if _, ok := c.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.add("d", d) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (a was refreshed)")
	}
	if got, ok := c.get("a"); !ok || got != a {
		t.Fatal("a lost")
	}
	if got, ok := c.get("d"); !ok || got != d {
		t.Fatal("d lost")
	}
	st := c.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want size 2 evictions 1", st)
	}
	// hits: a, a, d = 3; misses: a(first get? no—get("a") after add is a hit)...
	// Accounting: get(a)=hit, get(b)=miss, get(a)=hit, get(d)=hit.
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 hits 1 miss", st)
	}
}

func TestPlanCacheUpdateExisting(t *testing.T) {
	c := newPlanCache(4)
	p1, p2 := &Prepared{}, &Prepared{}
	c.add("k", p1)
	c.add("k", p2)
	if got, _ := c.get("k"); got != p2 {
		t.Fatal("re-add did not replace value")
	}
	if st := c.Stats(); st.Size != 1 {
		t.Fatalf("size = %d, want 1", st.Size)
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	c := newPlanCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%32)
				if _, ok := c.get(key); !ok {
					c.add(key, &Prepared{})
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Size > 16 {
		t.Fatalf("size %d exceeds capacity", st.Size)
	}
	if st.Hits+st.Misses != 8*500 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*500)
	}
}

// TestCompactDropsOldEpochEntries: a base swap drops every entry of the
// older epoch — no key can match it again, and it would keep the old base
// reachable until the LRU got round to it.
func TestCompactDropsOldEpochEntries(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	ls, err := NewStore(store.FromTriples([]rdf.Triple{
		{S: iri("a"), P: iri("p"), O: iri("b")},
		{S: iri("b"), P: iri("p"), O: iri("c")},
	}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	le := NewEngine(ls, "emptyheaded", func(st *store.Store, _ *shard.Partitioned) (engine.Engine, error) {
		return core.New(st, core.AllOptimizations), nil
	})
	texts := []string{
		`SELECT ?x WHERE { ?x <http://x/p> ?y }`,
		`SELECT ?x ?z WHERE { ?x <http://x/p> ?y . ?y <http://x/p> ?z }`,
		`SELECT DISTINCT ?y WHERE { ?x <http://x/p> ?y }`,
	}
	pinned, err := le.Open(query.MustParseSPARQL(texts[0]), engine.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range texts {
		if _, _, err := le.Prepare(query.MustParseSPARQL(text)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ls.Insert([]rdf.Triple{{S: iri("c"), P: iri("p"), O: iri("d")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Collect(pinned, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := le.Prepare(query.MustParseSPARQL(texts[1])); err != nil {
		t.Fatal(err)
	}
	c := ls.PlanCache()
	// A compile that pinned the old state before the swap must not re-add
	// its entry afterwards.
	c.add("late", &Prepared{epoch: ls.Epoch() - 1})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ll.Len() != 1 {
		t.Fatalf("cache holds %d entries after the swap, want only the new epoch's one", c.ll.Len())
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry).pq.epoch; e != ls.Epoch() {
			t.Fatalf("cache holds an epoch-%d entry at epoch %d", e, ls.Epoch())
		}
	}
}

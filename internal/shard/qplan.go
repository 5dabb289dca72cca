package shard

// qplan.go is the scatter planner: it turns a BGP into a reusable scatter
// plan — the root-group decomposition, per-group statistics-pruned shard
// target lists, cardinality estimates for the merge join's probe-side
// choice, and every sub-query compiled once for the shards it targets. The
// plan depends only on the immutable partition and the query; the engine
// keeps none of it. Callers that repeat queries keep the plan (the live
// layer's plan cache does, keyed by epoch, so a plan never outlives the
// statistics it was pruned against).

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
)

// queryPlan is one compiled scatter plan. Exactly one of single/join is set
// unless empty is.
type queryPlan struct {
	// vars is the caller's projection (the empty result's columns).
	vars []string
	// empty marks queries statically proven empty: a fully-constant pattern
	// absent from the data, a constant missing from the dictionary, or a
	// group whose every shard was pruned.
	empty  bool
	single *singlePlan
	join   *joinPlan
	// explain is the plan's serializable summary, assembled at compile time
	// (see explain.go).
	explain *ExplainPlan
}

// subQuery is one sub-query of a scatter plan, compiled once for the
// shards it targets: in process, each target shard engine's own plan;
// across the process boundary, its wire text.
type subQuery struct {
	bgp   *query.BGP
	plans []engine.Plan // indexed by shard; nil for untargeted shards or when remote
	text  string        // rendered only when remote
}

// compileSub compiles sub for the target shards.
func (e *Engine) compileSub(sub *subQuery, shards []int) error {
	if e.remote != nil {
		sub.text = sub.bgp.String()
		return nil
	}
	sub.plans = make([]engine.Plan, len(e.engs))
	for _, sh := range shards {
		p, err := engine.Compile(e.engs[sh], sub.bgp)
		if err != nil {
			return err
		}
		sub.plans[sh] = p
	}
	return nil
}

// singlePlan executes a query fully covered by one root group.
type singlePlan struct {
	// sub is the sub-query every target shard runs: the caller's projection
	// with the root variable appended when it was not selected (strip),
	// DISTINCT preserved.
	sub *subQuery
	// shards lists the scatter targets that survived pruning; for a routed
	// plan it is exactly the one shard that answers the query.
	shards []int
	// rootIdx locates the root variable in sub's projection (variable
	// roots).
	rootIdx int
	strip   bool
	// routed marks a query one shard answers alone (a constant root's
	// owner, or the only shard of a one-shard partition): no ownership
	// filter or merge is needed, and caps pass through.
	routed bool
}

// groupPlan is one root-covered group inside a multi-group (join) plan.
type groupPlan struct {
	// sub is the full-projection sub-query (all group variables, no
	// DISTINCT — group solutions are sets at full projection).
	sub  *subQuery
	vars []string
	// rootIdx locates the root in vars; -1 marks a constant root.
	rootIdx int
	// shards lists the scatter targets that survived pruning; pruned lists
	// the targets statistics skipped (the EXPLAIN surface and the
	// pruned-per-query histogram read it).
	shards []int
	pruned []int
	// est is the group's estimated solution cardinality summed over its
	// target shards (plan.ProfileQuery) — the probe-side choice signal.
	est float64
}

// joinPlan executes a query needing several root groups: groups[0] streams
// as the probe side, the rest are materialized into hash tables.
type joinPlan struct {
	groups []groupPlan
	// builds[i] wires groups[i+1] into the left-deep join.
	builds []buildWire
	// selIx maps the accumulated row to the caller's projection.
	selIx    []int
	vars     []string
	distinct bool

	// Materialized build sides, memoized after the first execution: the
	// partition is immutable and a plan is valid for one epoch only, so a
	// build group's solution set can never change under a cached plan.
	// Re-executions of a repeated query then pay only the probe stream and
	// the expansion — the broadcast side ships once, exactly like a
	// distributed engine caching its broadcast relations at the
	// coordinator. Guarded by mu; tabs stays nil until a build completes
	// successfully (a cancelled or failed build is not cached) or the
	// tables exceed buildCacheMaxRows.
	mu   sync.Mutex
	tabs []buildTable
}

// buildTable is one materialized build group keyed by its join columns —
// uint32-keyed when the key is a single column (no per-row string
// allocation on either side of the join), string-encoded otherwise.
type buildTable struct {
	byID  map[uint32][][]uint32
	byKey map[string][][]uint32
}

// newBuildTable picks the keying for a build group by its join-key arity.
func newBuildTable(keyCols int) buildTable {
	if keyCols == 1 {
		return buildTable{byID: map[uint32][][]uint32{}}
	}
	return buildTable{byKey: map[string][][]uint32{}}
}

// add indexes one group row under its join-key columns.
func (t buildTable) add(keyIx []int, row []uint32) {
	if t.byID != nil {
		t.byID[row[keyIx[0]]] = append(t.byID[row[keyIx[0]]], row)
		return
	}
	k := rowKey(row, keyIx)
	t.byKey[k] = append(t.byKey[k], row)
}

// lookup returns the group rows matching the accumulated row's key columns.
func (t buildTable) lookup(accRow []uint32, accKey []int) [][]uint32 {
	if t.byID != nil {
		return t.byID[accRow[accKey[0]]]
	}
	return t.byKey[rowKey(accRow, accKey)]
}

// buildCacheMaxRows bounds the total rows memoized per join plan: build
// groups are usually the leftover single-pattern groups (bounded by one
// predicate's relation), but a root-uncoverable query over a huge predicate
// should pay per execution rather than pin the table in the plan cache.
const buildCacheMaxRows = 1 << 20

// cachedTabs returns the memoized build tables, or nil when not built yet.
func (jp *joinPlan) cachedTabs() []buildTable {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	return jp.tabs
}

// storeTabs memoizes successfully built tables unless they exceed the row
// bound. Concurrent executions may race to build; the first stored wins.
func (jp *joinPlan) storeTabs(tabs []buildTable) {
	rows := 0
	for _, t := range tabs {
		for _, rs := range t.byID {
			rows += len(rs)
		}
		for _, rs := range t.byKey {
			rows += len(rs)
		}
	}
	if rows > buildCacheMaxRows {
		return
	}
	jp.mu.Lock()
	if jp.tabs == nil {
		jp.tabs = tabs
	}
	jp.mu.Unlock()
}

// buildWire is the column wiring of one build group: which accumulated
// columns form the join key, which group columns match it, and which group
// columns extend the accumulated row.
type buildWire struct {
	accKey   []int
	rowKeyIx []int
	appendIx []int
}

// Plan implements engine.Planner: it compiles q's scatter plan.
func (e *Engine) Plan(q *query.BGP) (engine.Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(e.engs) == 1 {
		// One shard is the whole dataset: pass straight through.
		sp := &singlePlan{sub: &subQuery{bgp: q}, shards: []int{0}, routed: true}
		if err := e.compileSub(sp.sub, sp.shards); err != nil {
			return nil, err
		}
		return &queryPlan{vars: q.Select, single: sp, explain: &ExplainPlan{Kind: "passthrough", Shards: 1}}, nil
	}
	return e.compile(q)
}

// compile builds the scatter plan: verify constant patterns, decompose into
// root groups, prune and estimate each group's shard targets, and pick the
// probe side for multi-group joins.
func (e *Engine) compile(q *query.BGP) (*queryPlan, error) {
	n := len(e.engs)
	exp := &ExplainPlan{Shards: n}
	rest, ok := e.splitConstant(q.Patterns)
	if !ok {
		exp.Kind = "empty"
		e.part.prunedPerQuery.Observe(0)
		return &queryPlan{vars: q.Select, empty: true, explain: exp}, nil
	}
	groups := decompose(rest)
	e.part.plansCompiled.Add(1)
	e.part.groupsPlanned.Add(int64(len(groups)))

	totalPruned := 0
	record := func() {
		e.part.shardsPruned.Add(int64(totalPruned))
		e.part.prunedPerQuery.Observe(float64(totalPruned))
	}
	gps := make([]groupPlan, len(groups))
	for i, g := range groups {
		gp, ok := e.planGroup(g)
		totalPruned += len(gp.pruned)
		exp.Groups = append(exp.Groups, ExplainGroup{
			Root:     nodeKey(g.root),
			Patterns: len(g.pats),
			Shards:   gp.shards,
			Pruned:   gp.pruned,
			EstRows:  gp.est,
		})
		if !ok {
			record()
			exp.Kind = "empty"
			return &queryPlan{vars: q.Select, empty: true, explain: exp}, nil
		}
		gps[i] = gp
	}
	record()
	if len(groups) == 1 {
		exp.Kind = "single"
		sp := planSingle(q, groups[0], gps[0])
		if err := e.compileSub(sp.sub, sp.shards); err != nil {
			return nil, err
		}
		return &queryPlan{vars: q.Select, single: sp, explain: exp}, nil
	}
	jp, probe := planJoin(q, gps)
	for _, gp := range jp.groups {
		if err := e.compileSub(gp.sub, gp.shards); err != nil {
			return nil, err
		}
	}
	exp.Kind = "join"
	exp.Probe = probe
	return &queryPlan{vars: q.Select, join: jp, explain: exp}, nil
}

// planGroup resolves one group's shard targets and cardinality estimate;
// gp.pruned lists the scatter targets it skipped (the caller folds the
// counts into the partition-wide counters, once per compiled plan).
// ok == false means the group (and therefore the whole query) is provably
// empty. Pruning leans on plan.ProfileQuery over each shard's store: it
// consults the per-predicate statistics (a predicate with no triples on a
// shard prunes it outright) and answers constant-bound patterns exactly via
// one root-trie lookup — the same adaptive-layout tries the trie-based
// engines descend at execution time, so for them the lookup warms an index
// the shard would build anyway. Pruning is sound because a shard's
// sub-query is evaluated entirely within that shard's store: if any single
// pattern has zero matches there, the shard contributes nothing — and a
// solution rooted at a node owned by a pruned shard cannot exist at all,
// since every one of its triples is co-located on the owner by
// construction (owned by subject, replicated by object).
func (e *Engine) planGroup(g group) (groupPlan, bool) {
	n := len(e.engs)
	gp := groupPlan{vars: g.vars(), rootIdx: -1}
	gp.sub = &subQuery{bgp: &query.BGP{Select: gp.vars, Patterns: g.pats}}

	if !g.root.IsVar {
		id, ok := e.part.dict.Lookup(g.root.Term)
		if !ok {
			return gp, false
		}
		own := ShardOf(id, n)
		prof, err := plan.ProfileQuery(gp.sub.bgp, e.part.shards[own])
		if err == nil {
			if prof.Empty && !e.noPrune {
				// Every solution of a constant-rooted group lives on the
				// owner shard; an empty owner means an empty group.
				gp.pruned = []int{own}
				return gp, false
			}
			gp.est = prof.EstOut
		}
		gp.shards = []int{own}
		return gp, true
	}

	for i, v := range gp.vars {
		if v == g.root.Var {
			gp.rootIdx = i
			break
		}
	}
	for sh := 0; sh < n; sh++ {
		st := e.part.shards[sh]
		cannotMatch := st.NumTriples() == 0
		if prof, err := plan.ProfileQuery(gp.sub.bgp, st); err == nil {
			cannotMatch = cannotMatch || prof.Empty
			gp.est += prof.EstOut
		}
		if cannotMatch && !e.noPrune {
			gp.pruned = append(gp.pruned, sh)
			continue
		}
		gp.shards = append(gp.shards, sh)
	}
	return gp, len(gp.shards) > 0
}

// planSingle shapes the single-group execution: the caller's projection
// (root appended when missing, so the merge layer can apply the ownership
// filter) and the group's pruned shard targets.
func planSingle(q *query.BGP, g group, gp groupPlan) *singlePlan {
	if !g.root.IsVar {
		return &singlePlan{
			sub:    &subQuery{bgp: &query.BGP{Select: q.Select, Distinct: q.Distinct, Patterns: g.pats}},
			shards: gp.shards,
			routed: true,
		}
	}
	sel := q.Select
	rootIdx := -1
	for i, v := range sel {
		if v == g.root.Var {
			rootIdx = i
			break
		}
	}
	strip := false
	if rootIdx < 0 {
		// Appending a variable to a non-DISTINCT projection never changes
		// the multiset (projection does not deduplicate), and under DISTINCT
		// the merge dedups the stripped rows anyway.
		sel = append(append(make([]string, 0, len(q.Select)+1), q.Select...), g.root.Var)
		rootIdx = len(sel) - 1
		strip = true
	}
	return &singlePlan{
		sub:     &subQuery{bgp: &query.BGP{Select: sel, Distinct: q.Distinct, Patterns: g.pats}},
		shards:  gp.shards,
		rootIdx: rootIdx,
		strip:   strip,
	}
}

// planJoin orders the groups for the left-deep merge join and precomputes
// the column wiring for the accumulated row. The probe side is chosen by
// the groups' cardinality estimates, in two regimes:
//
//   - When the non-probe groups fit the materialization budget, the
//     SMALLEST-estimate group streams as the probe. The build tables are
//     memoized on the plan (the partition is immutable), so re-executions
//     of a repeated query pay only the cheapest group's scatter plus the
//     hash expansion — the expensive groups ship to the coordinator once.
//   - Otherwise the LARGEST-estimate group streams, the classic hash-join
//     choice: the tables must be rebuilt per execution, so they should be
//     the small ones.
//
// It also returns the chosen probe group's index into gps, for EXPLAIN.
func planJoin(q *query.BGP, gps []groupPlan) (*joinPlan, int) {
	probe, largest := 0, 0
	var total float64
	for i, gp := range gps {
		total += gp.est
		if gp.est < gps[probe].est {
			probe = i
		}
		if gp.est > gps[largest].est {
			largest = i
		}
	}
	if total-gps[probe].est > buildCacheMaxRows {
		probe = largest
	}
	ordered := make([]groupPlan, 0, len(gps))
	ordered = append(ordered, gps[probe])
	for i, gp := range gps {
		if i != probe {
			ordered = append(ordered, gp)
		}
	}

	jp := &joinPlan{groups: ordered, vars: q.Select, distinct: q.Distinct}
	acc := append([]string(nil), ordered[0].vars...)
	accPos := map[string]int{}
	for i, v := range acc {
		accPos[v] = i
	}
	for _, gp := range ordered[1:] {
		var w buildWire
		for j, v := range gp.vars {
			if i, ok := accPos[v]; ok {
				w.accKey = append(w.accKey, i)
				w.rowKeyIx = append(w.rowKeyIx, j)
			} else {
				w.appendIx = append(w.appendIx, j)
				accPos[v] = len(acc)
				acc = append(acc, v)
			}
		}
		jp.builds = append(jp.builds, w)
	}
	jp.selIx = make([]int, len(q.Select))
	for i, v := range q.Select {
		jp.selIx[i] = accPos[v]
	}
	return jp, probe
}

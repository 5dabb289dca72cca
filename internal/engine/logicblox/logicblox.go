// Package logicblox models the LogicBlox engine as characterized by the
// paper (§I, §IV): the first commercial engine with a worst-case optimal
// join algorithm — so it shares EmptyHeaded's asymptotics on cyclic queries
// — but "without fully optimized query plans or indexes". Concretely, this
// model runs the generic worst-case optimal join over the whole query as a
// single flat node (no GHD factorization), with the natural attribute order
// (selections are probed at their pattern positions rather than hoisted
// first) and unsigned-integer-array set layouts only. Those are exactly the
// deltas Table I/II attribute to LogicBlox versus EmptyHeaded.
package logicblox

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/set"
	"repro/internal/store"
)

// Engine is the LogicBlox-like baseline. It holds no per-query state.
type Engine struct {
	st *store.Store
}

// New returns the engine over st.
func New(st *store.Store) *Engine {
	return &Engine{st: st}
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "logicblox" }

// Open compiles the query to a single-node plan (flat generic join over
// every relation, attributes in order of first appearance) and streams it
// with uint-array layouts.
func (e *Engine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	p, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	return e.OpenPlan(p, opts)
}

// OpenPlan implements engine.Planner. The LogicBlox model has no parallel
// enumeration; opts.Workers is ignored.
func (e *Engine) OpenPlan(p engine.Plan, opts engine.ExecOpts) (engine.Cursor, error) {
	return exec.Open(p.(*plan.Plan), e.st, exec.Options{
		Policy:  set.PolicyUintOnly,
		Ctx:     opts.Ctx,
		MaxRows: opts.MaxRows,
		Offset:  opts.Offset,
	})
}

// Plan implements engine.Planner: it builds the flat single-node plan (a
// *plan.Plan) directly, bypassing the GHD optimizer on purpose.
func (e *Engine) Plan(q *query.BGP) (engine.Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	d := e.st.Dict()

	type patAttrs struct {
		attrs      []plan.Attr
		useTriples bool
		pred       uint32
	}
	var pats []patAttrs
	var order []string // global attribute order: first appearance
	seen := map[string]bool{}
	appendAttr := func(a plan.Attr) {
		if !seen[a.Name] {
			seen[a.Name] = true
			order = append(order, a.Name)
		}
	}

	for i, pat := range q.Patterns {
		var pa patAttrs
		mk := func(n query.Node, pos int) (plan.Attr, bool) {
			if n.IsVar {
				return plan.Attr{Name: n.Var, Pos: pos}, true
			}
			id, ok := d.Lookup(n.Term)
			if !ok {
				return plan.Attr{}, false
			}
			return plan.Attr{Name: fmt.Sprintf("$%d.%d", i, pos), IsSel: true, Value: id, Pos: pos}, true
		}
		if pat.P.IsVar {
			pa.useTriples = true
			for pos, n := range []query.Node{pat.S, pat.P, pat.O} {
				a, ok := mk(n, pos)
				if !ok {
					return &plan.Plan{Empty: true, Select: q.Select, Distinct: q.Distinct}, nil
				}
				pa.attrs = append(pa.attrs, a)
				appendAttr(a)
			}
		} else {
			pid, ok := d.Lookup(pat.P.Term)
			if !ok || e.st.Relation(pid) == nil {
				return &plan.Plan{Empty: true, Select: q.Select, Distinct: q.Distinct}, nil
			}
			pa.pred = pid
			for _, pn := range []struct {
				n   query.Node
				pos int
			}{{pat.S, 0}, {pat.O, 2}} {
				a, ok := mk(pn.n, pn.pos)
				if !ok {
					return &plan.Plan{Empty: true, Select: q.Select, Distinct: q.Distinct}, nil
				}
				pa.attrs = append(pa.attrs, a)
				appendAttr(a)
			}
		}
		pats = append(pats, pa)
	}

	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	node := &plan.Node{}
	attrSeen := map[string]bool{}
	var nodeAttrs []plan.Attr
	for _, pa := range pats {
		for _, a := range pa.attrs {
			if !attrSeen[a.Name] {
				attrSeen[a.Name] = true
				nodeAttrs = append(nodeAttrs, a)
			}
		}
	}
	sort.Slice(nodeAttrs, func(i, j int) bool { return pos[nodeAttrs[i].Name] < pos[nodeAttrs[j].Name] })
	node.Attrs = nodeAttrs
	for _, a := range nodeAttrs {
		if !a.IsSel {
			node.Vars = append(node.Vars, a.Name)
		}
	}
	for i, pa := range pats {
		levels := append([]plan.Attr(nil), pa.attrs...)
		sort.SliceStable(levels, func(a, b int) bool { return pos[levels[a].Name] < pos[levels[b].Name] })
		node.Rels = append(node.Rels, plan.RelRef{
			PatternIdx: i,
			UseTriples: pa.useTriples,
			Pred:       pa.pred,
			Levels:     levels,
		})
	}
	return &plan.Plan{
		Root:        node,
		GlobalOrder: order,
		Select:      q.Select,
		Distinct:    q.Distinct,
	}, nil
}

var _ engine.Planner = (*Engine)(nil)

package engines

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/logicblox"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/store"
)

// autoEngine routes every query to the engine class the cost model
// (internal/plan) prices cheapest: the fully optimized hybrid GHD plan for
// selective and cyclic queries, a flat worst-case optimal leapfrog for
// intersection-heavy big-output queries (where GHD materialization costs
// more than it saves), and uint-layout scan enumeration for join-free
// output-dominated queries (where bitset decode is pure overhead). The
// routing decision is part of the plan; every pick is recorded in the
// stats.Default ledger for /stats.
type autoEngine struct {
	st      *store.Store
	byClass [3]engine.Engine
}

func newAuto(st *store.Store) *autoEngine {
	return &autoEngine{
		st: st,
		byClass: [3]engine.Engine{
			plan.ClassHybridGHD: core.New(st, core.AllOptimizations),
			plan.ClassPureWCOJ:  logicblox.New(st),
			// Every optimization except the layout chooser: enumeration
			// streams sorted uint arrays instead of decoding bitsets.
			plan.ClassScanEnumerate: core.New(st, core.Options{
				AttributeReorder: true,
				GHDPushdown:      true,
				Pipelining:       true,
			}),
		},
	}
}

// route is the auto engine's plan: the query's cost-model profile, the
// class it chose, and that class's engine's own plan.
type route struct {
	prof  plan.Profile
	class plan.EngineClass
	sub   engine.Plan
}

// Profile exposes the cost-model profile the route was chosen from, so a
// plan cache can price the entry without profiling the query again.
func (r *route) Profile() plan.Profile { return r.prof }

// Name implements engine.Engine.
func (e *autoEngine) Name() string { return "auto" }

// Plan implements engine.Planner: profile q, pick the cheapest class, and
// compile q on that class's engine.
func (e *autoEngine) Plan(q *query.BGP) (engine.Plan, error) {
	prof, err := plan.ProfileQuery(q, e.st)
	if err != nil {
		return nil, err
	}
	cls, _ := prof.ChooseClass()
	sub, err := engine.Compile(e.byClass[cls], q)
	if err != nil {
		return nil, err
	}
	return &route{prof: prof, class: cls, sub: sub}, nil
}

// OpenPlan implements engine.Planner by delegating to the routed engine.
func (e *autoEngine) OpenPlan(p engine.Plan, opts engine.ExecOpts) (engine.Cursor, error) {
	r := p.(*route)
	stats.Default.RecordEnginePick(r.class.String())
	obs.SpanFrom(opts.Ctx).SetAttr("engine_class", r.class.String())
	return engine.OpenCompiled(e.byClass[r.class], r.sub, opts)
}

// Open implements engine.Engine.
func (e *autoEngine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	p, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	return e.OpenPlan(p, opts)
}

var _ engine.Planner = (*autoEngine)(nil)

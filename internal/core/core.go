// Package core implements the EmptyHeaded-style engine that is the paper's
// primary subject: trie storage over dictionary-encoded vertically
// partitioned relations, the generic worst-case optimal join, GHD query
// plans, and the three classic optimizations of §III (index layouts,
// selection pushdown within and across GHD nodes, and pipelining), each
// independently toggleable so the Table I ablations can be reproduced.
package core

import (
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/set"
	"repro/internal/store"
)

// Options toggles the paper's optimizations (Table I columns).
type Options struct {
	// Layout enables the set layout optimizer (§III-A): bitsets for dense
	// sets, uint arrays otherwise. Disabled, every set is a uint array.
	Layout bool
	// AttributeReorder pushes selections down within GHD nodes (§III-B1).
	AttributeReorder bool
	// GHDPushdown pushes selections down across GHD nodes (§III-B2).
	GHDPushdown bool
	// Pipelining streams pipelineable root-child pairs (§III-C).
	Pipelining bool
	// Workers parallelizes the final enumeration over goroutines (the
	// paper's testbed ran 48 cores). Values <= 1 keep execution
	// sequential, which is the deterministic default used in benchmarks.
	Workers int
}

// AllOptimizations is the fully optimized configuration benchmarked as
// "EmptyHeaded" in Table II.
var AllOptimizations = Options{
	Layout:           true,
	AttributeReorder: true,
	GHDPushdown:      true,
	Pipelining:       true,
}

// NoOptimizations is the fully un-optimized worst-case optimal baseline.
var NoOptimizations = Options{}

// Engine is an EmptyHeaded-style worst-case optimal engine bound to a
// dataset. It holds no per-query state: compiled plans are the caller's to
// keep (see engine.Planner).
type Engine struct {
	st   *store.Store
	opts Options
	name string
}

// New returns an engine over st with the given optimization configuration.
func New(st *store.Store, opts Options) *Engine {
	return &Engine{st: st, opts: opts, name: "emptyheaded"}
}

// WithName overrides the engine's reported name (used when benchmarking
// several configurations side by side).
func (e *Engine) WithName(name string) *Engine {
	e.name = name
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.name }

// Options returns the engine's optimization configuration.
func (e *Engine) Options() Options { return e.opts }

// Policy returns the set layout policy implied by the Layout toggle. With
// layout optimization on, the engine now uses the statistics-driven adaptive
// rule (measured 1-in-128 crossover with a minimum-cardinality floor) rather
// than the paper's static 1-in-256 rule; the -layout ablation still degrades
// to uint-only.
func (e *Engine) Policy() set.Policy {
	if e.opts.Layout {
		return set.PolicyAdaptive
	}
	return set.PolicyUintOnly
}

func (e *Engine) planOptions() plan.Options {
	return plan.Options{
		Layout:           e.Policy(),
		AttributeReorder: e.opts.AttributeReorder,
		GHDPushdown:      e.opts.GHDPushdown,
		Pipelining:       e.opts.Pipelining,
	}
}

// OptionsKey renders the plan-relevant options, so plan caches never share
// a plan between differently configured engines.
func (e *Engine) OptionsKey() string { return e.planOptions().Key() }

// Plan implements engine.Planner: it compiles q to a GHD plan (a
// *plan.Plan) without executing it.
func (e *Engine) Plan(q *query.BGP) (engine.Plan, error) {
	return plan.Compile(q, e.st, e.planOptions())
}

// Open implements engine.Engine: compile to a GHD plan and stream the
// bottom-up worst-case optimal pass plus the final enumeration through a
// cursor. Nothing is memoized; the paper's compile-excluded timings come
// from callers that compile once (bench.MeasureVar, the live plan cache).
func (e *Engine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	p, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	return e.OpenPlan(p, opts)
}

// OpenPlan implements engine.Planner. opts.Workers > 0 overrides the
// engine's configured parallelism for this execution.
func (e *Engine) OpenPlan(p engine.Plan, opts engine.ExecOpts) (engine.Cursor, error) {
	workers := e.opts.Workers
	if opts.Workers > 0 {
		workers = opts.Workers
	}
	return exec.Open(p.(*plan.Plan), e.st, exec.Options{
		Policy:  e.Policy(),
		Workers: workers,
		Ctx:     opts.Ctx,
		MaxRows: opts.MaxRows,
		Offset:  opts.Offset,
	})
}

var _ engine.Planner = (*Engine)(nil)

package live

import (
	"context"
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/store"
)

// The overlay evaluator implements the classic incremental-view-maintenance
// delta rules for conjunctive queries under bag semantics. Let B be the
// base triple set, D ⊆ B the tombstones, I the inserts (disjoint from B),
// B1 = B \ D and B2 = B1 ∪ I the overlay. For a BGP with patterns
// p_0..p_{k-1}:
//
//	Q(B1) = Q(B)  − Σ_i Q[p_j<i ← B1, p_i ← D, p_j>i ← B]
//	Q(B2) = Q(B1) + Σ_i Q[p_j<i ← B1, p_i ← I, p_j>i ← B2]
//
// Every correction term pins exactly one pattern to the (small) delta, so
// its cost is delta-bounded. The base term Q(B) streams from the wrapped
// engine's own cursor; the corrections are netted into a per-row count map
// and merged against that stream: rows with negative net are dropped as
// they pass, rows with positive net are appended. The merged multiset is
// exactly Q over a store rebuilt from the patched triple set; DISTINCT is
// applied after the merge (corrections need true multiplicities, so the
// base cursor is opened without DISTINCT), then Offset/MaxRows, matching
// the engine contract's ordering.

// src tags which triple set a pattern scans in one correction term.
type src uint8

const (
	srcBase     src = iota // B: the full base table
	srcBaseLive            // B1 = B \ D
	srcOverlay             // B2 = (B \ D) ∪ I
	srcIns                 // I
	srcDel                 // D
)

// corr is one projected row's net correction.
type corr struct {
	row []uint32
	n   int
}

// evaluator computes correction terms over one pinned state.
type evaluator struct {
	s    *state
	tick *engine.Ticker
}

// openOverlay returns the merged overlay cursor for pq over the pinned
// state s, streaming the base term from inner, the engine that compiled pq.
// DISTINCT is applied after the merge and caps/offsets at the merge layer,
// so the base stream runs pq's DISTINCT-stripped plan uncapped.
func openOverlay(s *state, inner engine.Engine, pq *Prepared, opts engine.ExecOpts) engine.Cursor {
	q := pq.bgp
	produce := func(ctx context.Context, emit func([]uint32) error) error {
		ev := &evaluator{s: s, tick: engine.NewTicker(ctx)}
		net, err := ev.corrections(q)
		if err != nil {
			return err
		}
		bp, err := pq.basePlan(inner)
		if err != nil {
			return err
		}
		cur, err := engine.OpenCompiled(inner, bp, engine.ExecOpts{Ctx: ctx, Workers: opts.Workers})
		if err != nil {
			return err
		}
		defer cur.Close()

		var dedup map[string]bool
		if q.Distinct {
			dedup = map[string]bool{}
		}
		out := func(row []uint32) error {
			if dedup != nil {
				k := engine.RowKey(row)
				if dedup[k] {
					return nil
				}
				dedup[k] = true
			}
			return emit(row)
		}
		for {
			row, err := cur.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if len(net) > 0 {
				if c := net[engine.RowKey(row)]; c != nil && c.n < 0 {
					c.n++ // a tombstone consumed this occurrence
					continue
				}
			}
			if err := out(row); err != nil {
				return err
			}
		}
		for _, c := range net {
			if c.n < 0 {
				// Mathematically impossible when base ≡ corrections; if it
				// happens the wrapped engine produced a wrong multiset.
				return fmt.Errorf("live: overlay correction underflow (%d unmatched deletions for one row) — wrapped engine produced an inconsistent base multiset", -c.n)
			}
			for i := 0; i < c.n; i++ {
				if err := out(append([]uint32(nil), c.row...)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	cur := engine.NewGenerator(opts.Ctx, q.Select, produce)
	return engine.Limit(cur, opts.Offset, opts.MaxRows)
}

// corrections nets every correction term for q into a per-row map keyed by
// the projected row.
func (ev *evaluator) corrections(q *query.BGP) (map[string]*corr, error) {
	net := map[string]*corr{}
	d := ev.s.delta
	k := len(q.Patterns)
	accumulate := func(sign int) func(row []uint32) error {
		return func(row []uint32) error {
			key := engine.RowKey(row)
			c := net[key]
			if c == nil {
				c = &corr{row: row}
				net[key] = c
			}
			c.n += sign
			return nil
		}
	}
	if len(d.del) > 0 {
		for i := 0; i < k; i++ {
			srcs := make([]src, k)
			for j := range srcs {
				switch {
				case j < i:
					srcs[j] = srcBaseLive
				case j == i:
					srcs[j] = srcDel
				default:
					srcs[j] = srcBase
				}
			}
			if err := ev.enumerate(q, srcs, accumulate(-1)); err != nil {
				return nil, err
			}
		}
	}
	if len(d.ins) > 0 {
		for i := 0; i < k; i++ {
			srcs := make([]src, k)
			for j := range srcs {
				switch {
				case j < i:
					srcs[j] = srcBaseLive
				case j == i:
					srcs[j] = srcIns
				default:
					srcs[j] = srcOverlay
				}
			}
			if err := ev.enumerate(q, srcs, accumulate(+1)); err != nil {
				return nil, err
			}
		}
	}
	return net, nil
}

// patSrc is one pattern with its term's source assignment.
type patSrc struct {
	pat query.Pattern
	src src
}

// enumerate backtracks over one correction term, yielding every projected
// solution row (with multiplicity).
func (ev *evaluator) enumerate(q *query.BGP, srcs []src, yield func(row []uint32) error) error {
	ps := make([]patSrc, len(q.Patterns))
	for i, p := range q.Patterns {
		ps[i] = patSrc{pat: p, src: srcs[i]}
	}
	b := map[string]uint32{}
	return ev.solve(ps, b, func() error {
		row := make([]uint32, len(q.Select))
		for i, v := range q.Select {
			row[i] = b[v]
		}
		return yield(row)
	})
}

// candList is one candidate slice; skipDel filters tombstoned triples out
// (the B1/B2 views of the base table).
type candList struct {
	ts      []store.Triple
	skipDel bool
}

// resolved is a pattern's three positions resolved under current bindings:
// per position the fixed value (when bound) and, overall, whether a
// constant term failed dictionary lookup (no match possible).
type resolved struct {
	v     [3]uint32
	bound [3]bool
	ok    bool
}

func (ev *evaluator) resolve(p query.Pattern, b map[string]uint32) resolved {
	var r resolved
	r.ok = true
	for i, n := range [3]query.Node{p.S, p.P, p.O} {
		if n.IsVar {
			if v, bound := b[n.Var]; bound {
				r.v[i], r.bound[i] = v, true
			}
			continue
		}
		id, ok := ev.s.base.st.Dict().Lookup(n.Term)
		if !ok {
			r.ok = false
			return r
		}
		r.v[i], r.bound[i] = id, true
	}
	return r
}

// candidates returns the candidate lists for one source-tagged pattern
// under the current bindings, plus their summed length (an upper bound used
// by the greedy pattern ordering). ok=false prunes the branch (a constant
// is absent from the data).
func (ev *evaluator) candidates(ps patSrc, b map[string]uint32) (lists []candList, size int, ok bool) {
	r := ev.resolve(ps.pat, b)
	if !r.ok {
		return nil, 0, false
	}
	d := ev.s.delta
	switch ps.src {
	case srcBase:
		lists = []candList{{ts: ev.s.base.index().pick(r.v, r.bound)}}
	case srcBaseLive:
		lists = []candList{{ts: ev.s.base.index().pick(r.v, r.bound), skipDel: true}}
	case srcOverlay:
		lists = []candList{
			{ts: ev.s.base.index().pick(r.v, r.bound), skipDel: true},
			{ts: d.insIdx.pick(r.v, r.bound)},
		}
	case srcIns:
		lists = []candList{{ts: d.insIdx.pick(r.v, r.bound)}}
	case srcDel:
		lists = []candList{{ts: d.delIdx.pick(r.v, r.bound)}}
	}
	for _, l := range lists {
		size += len(l.ts)
	}
	return lists, size, true
}

// solve expands the remaining patterns cheapest-first (the delta-pinned
// pattern's list is tiny, so it naturally goes first), binding variables
// with backtracking exactly like the naive oracle.
func (ev *evaluator) solve(remaining []patSrc, b map[string]uint32, leaf func() error) error {
	if len(remaining) == 0 {
		return leaf()
	}
	bestIdx := -1
	var bestLists []candList
	bestSize := 0
	for i, ps := range remaining {
		lists, size, ok := ev.candidates(ps, b)
		if !ok || size == 0 {
			return nil // no matches down this branch
		}
		if bestIdx < 0 || size < bestSize {
			bestIdx, bestLists, bestSize = i, lists, size
		}
	}
	ps := remaining[bestIdx]
	rest := make([]patSrc, 0, len(remaining)-1)
	rest = append(rest, remaining[:bestIdx]...)
	rest = append(rest, remaining[bestIdx+1:]...)
	r := ev.resolve(ps.pat, b)
	delSet := ev.s.delta.delSet
	for _, cl := range bestLists {
		for _, t := range cl.ts {
			if err := ev.tick.Check(); err != nil {
				return err
			}
			if cl.skipDel {
				if _, dead := delSet[t]; dead {
					continue
				}
			}
			if r.bound[0] && t.S != r.v[0] || r.bound[1] && t.P != r.v[1] || r.bound[2] && t.O != r.v[2] {
				continue
			}
			// Bind free variables, honouring repeated variables within the
			// pattern (?x p ?x).
			var undo []string
			ok := true
			for _, pos := range [3]struct {
				n query.Node
				v uint32
			}{{ps.pat.S, t.S}, {ps.pat.P, t.P}, {ps.pat.O, t.O}} {
				if !pos.n.IsVar {
					continue
				}
				if bound, exists := b[pos.n.Var]; exists {
					if bound != pos.v {
						ok = false
						break
					}
					continue
				}
				b[pos.n.Var] = pos.v
				undo = append(undo, pos.n.Var)
			}
			var err error
			if ok {
				err = ev.solve(rest, b, leaf)
			}
			for _, v := range undo {
				delete(b, v)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

package live

import (
	"errors"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
)

// BuildFunc constructs the wrapped engine over one epoch's base: from the
// shard partition when the live store is sharded (part non-nil), from the
// plain store otherwise. The registry supplies this (engines.NewLive);
// direct users can pass e.g. func(st, _) { return core.New(st, opts), nil }.
type BuildFunc func(st *store.Store, part *shard.Partitioned) (engine.Engine, error)

// ErrNotSharded is OpenShard's error over an unpartitioned store.
var ErrNotSharded = errors.New("live: engine is not sharded")

// Engine adapts any wrapped engine to the read-write overlay: it satisfies
// the engine.Engine cursor contract over overlay = (base \ tombstones) ∪
// inserts. Every query resolves to a plan-cache entry (compiled on a miss)
// first. While the delta is empty the entry's plan runs straight on the
// wrapped engine (same cursor, same parallelism, caps pushed down); with a
// pending delta, the base cursor is merged with delta corrections (see
// overlay.go). Each cursor pins the epoch state it opened against, so
// compactions never disturb in-flight queries.
type Engine struct {
	ls    *Store
	name  string
	build BuildFunc
}

// NewEngine wraps the named engine (constructed per epoch by build) over
// ls. The wrapped engine is built lazily per epoch and cached, so repeated
// opens within an epoch reuse its indexes.
func NewEngine(ls *Store, name string, build BuildFunc) *Engine {
	return &Engine{ls: ls, name: name, build: build}
}

// Name implements engine.Engine; it reports the wrapped engine's name so
// benchmark and stats attribution stay stable.
func (e *Engine) Name() string { return e.name }

// Inner returns the wrapped engine instance for the current epoch, building
// it if needed. Callers may inspect it (e.g. for capability sniffing) but
// must route queries through Open so the overlay stays visible.
func (e *Engine) Inner() (engine.Engine, error) {
	s := e.ls.pin()
	defer s.unpin()
	return s.base.engine(e.name, e.build)
}

// Open implements engine.Engine over the overlay, through the plan cache.
// The cursor reports q's own variable names.
func (e *Engine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	return e.open(q, nil, opts)
}

// Prepare resolves q to its plan-cache entry for the current epoch,
// compiling on a miss; hit reports a cache hit.
func (e *Engine) Prepare(q *query.BGP) (pq *Prepared, hit bool, err error) {
	s := e.ls.pin()
	defer s.unpin()
	return e.prepare(s, q)
}

// OpenPrepared opens an entry Prepare returned. An entry of an older epoch
// is resolved again against the current base. The cursor reports the
// normalized variable names (positions match the query's projection).
func (e *Engine) OpenPrepared(pq *Prepared, opts engine.ExecOpts) (engine.Cursor, error) {
	return e.open(pq.bgp, pq, opts)
}

// prepare resolves q against the pinned state s.
func (e *Engine) prepare(s *state, q *query.BGP) (*Prepared, bool, error) {
	inner, err := s.base.engine(e.name, e.build)
	if err != nil {
		return nil, false, err
	}
	return e.lookup(s, q, "", inner, s.base.st)
}

// lookup resolves q's cache entry for engine eng, a scope-named part of
// the epoch's wrapped engine; a miss compiles q on eng and prices it over
// st.
func (e *Engine) lookup(s *state, q *query.BGP, scope string, eng engine.Engine, st *store.Store) (*Prepared, bool, error) {
	if err := q.Validate(); err != nil {
		return nil, false, err
	}
	norm, text := query.Normalize(q)
	key := "e" + strconv.FormatUint(s.epoch, 10) + "|" + e.name + scope + "|" + optionsKey(eng) + "|" + text
	if pq, ok := e.ls.plans.get(key); ok {
		if s.base.part != nil && pq.Scatter() != nil {
			s.base.part.NotePlanReuse()
		}
		return pq, true, nil
	}
	p, err := engine.Compile(eng, norm)
	if err != nil {
		return nil, false, err
	}
	pq := &Prepared{bgp: norm, epoch: s.epoch, plan: p}
	pq.price(st)
	e.ls.plans.add(key, pq)
	return pq, false, nil
}

// optionsKey renders the wrapped engine's plan-relevant options, so
// differently configured engines under one name never share plans.
func optionsKey(inner engine.Engine) string {
	if se, ok := inner.(*shard.Engine); ok {
		inner = se.ShardEngine(0)
	}
	if k, ok := inner.(interface{ OptionsKey() string }); ok {
		return k.OptionsKey()
	}
	return ""
}

func (e *Engine) open(q *query.BGP, pq *Prepared, opts engine.ExecOpts) (engine.Cursor, error) {
	if err := opts.Err(); err != nil {
		return nil, err
	}
	cur, _, err := e.pinned(q.Select, func(s *state) (engine.Cursor, error) { return e.openPinned(s, q, pq, opts) })
	return cur, err
}

// pinned opens a cursor against the current state, which stays pinned
// until the cursor closes, and reports that state's epoch.
func (e *Engine) pinned(vars []string, open func(*state) (engine.Cursor, error)) (engine.Cursor, uint64, error) {
	s := e.ls.pin()
	cur, err := open(s)
	if err != nil {
		s.unpin()
		return nil, 0, err
	}
	return &pinnedCursor{Cursor: cur, s: s, vars: vars}, s.epoch, nil
}

func (e *Engine) openPinned(s *state, q *query.BGP, pq *Prepared, opts engine.ExecOpts) (engine.Cursor, error) {
	if pq == nil || pq.epoch != s.epoch {
		var err error
		if pq, _, err = e.prepare(s, q); err != nil {
			return nil, err
		}
	}
	inner, err := s.base.engine(e.name, e.build)
	if err != nil {
		return nil, err
	}
	if s.delta.empty() {
		return engine.OpenCompiled(inner, pq.plan, opts)
	}
	if sp := obs.SpanFrom(opts.Ctx); sp != nil {
		sp.SetAttr("overlay", true)
		sp.SetAttr("delta_size", s.delta.size())
	}
	return openOverlay(s, inner, pq, opts), nil
}

// OpenShard opens q on shard sh's own engine over the base alone — a
// cluster worker's drain (the coordinator owns the overlay) — through the
// plan cache. It returns the epoch the cursor pinned.
func (e *Engine) OpenShard(sh int, q *query.BGP, opts engine.ExecOpts) (engine.Cursor, uint64, error) {
	return e.pinned(q.Select, func(s *state) (engine.Cursor, error) { return e.openShard(s, sh, q, opts) })
}

func (e *Engine) openShard(s *state, sh int, q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	inner, err := s.base.engine(e.name, e.build)
	if err != nil {
		return nil, err
	}
	se, ok := inner.(*shard.Engine)
	if !ok {
		return nil, ErrNotSharded
	}
	eng := se.ShardEngine(sh)
	pq, _, err := e.lookup(s, q, "#shard"+strconv.Itoa(sh), eng, s.base.part.Shard(sh))
	if err != nil {
		return nil, err
	}
	return engine.OpenCompiled(eng, pq.plan, opts)
}

// pinnedCursor unpins its epoch state exactly once on Close, so compaction
// observability (StoreStats.PinnedReaders) tracks in-flight cursors.
// It reports vars as its columns: the caller's names for a query the
// cache normalized.
type pinnedCursor struct {
	engine.Cursor
	s    *state
	vars []string
	once sync.Once
}

func (p *pinnedCursor) Vars() []string { return p.vars }

func (p *pinnedCursor) Close() error {
	err := p.Cursor.Close()
	p.once.Do(p.s.unpin)
	return err
}

var _ engine.Engine = (*Engine)(nil)

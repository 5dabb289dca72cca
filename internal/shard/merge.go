package shard

// merge.go is the gather side of scatter-gather: one drain goroutine per
// surviving shard hands row batches through a single fan-in channel to the
// merge cursor, which iterates batches in place. Transport is
// batch-granular end to end — the ownership filter, root strip, and drain
// cap are applied inside the drain as it batches, and the consumer never
// crosses a channel per row. (An earlier shape piped the fan-in channel
// through engine.NewGenerator, re-batching every row through a second
// goroutine and channel; at LUBM scale that double hop was the single
// largest term in the 18× sharded q2 regression.)

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
)

// drainSpan starts one per-shard drain span under the trace span carried by
// ctx, nil (and free) when the query is untraced. inline marks the
// single-survivor fast path, where the drain runs on the caller's goroutine
// instead of a fan-in worker.
func drainSpan(ctx context.Context, shard int, inline bool) *obs.Span {
	sp := obs.SpanFrom(ctx).Child("shard_drain")
	sp.SetAttr("shard", shard)
	if inline {
		sp.SetAttr("inline", true)
	}
	return sp
}

// gatherBatch is how many rows a shard drain accumulates before handing
// them to the merge cursor — per-row channel sends were measured as too
// expensive at this seam once before (see genBatchRows in
// internal/engine/cursor.go); the merge fan-in amortizes the same way.
const gatherBatch = 64

// gatherFlushMin is the smallest partial batch a drain flushes
// opportunistically (non-blocking, at power-of-two sizes), keeping
// first-row latency low for trickling shards without degenerating into
// per-row sends.
const gatherFlushMin = 8

// gatherBuf is the fan-in channel depth in batches: enough to keep shards
// busy while the consumer works through a batch, small enough that an
// abandoned merge strands O(shards · gatherBatch) rows.
const gatherBuf = 8

// openFunc opens one shard's sub-query cursor under the merge's context —
// the fault-injection seam the chaos suite scripts against.
type openFunc func(context.Context) (engine.Cursor, error)

// gather is the Engine's scatter entry point: it opens sub on every
// surviving shard and returns the merged union cursor.
func (e *Engine) gather(ctx context.Context, vars []string, sub *subQuery, shards []int, keep func(shard int, row []uint32) bool, strip bool, perShardCap int, rootIdx int, workers int) engine.Cursor {
	opens := make([]openFunc, len(shards))
	for i, sh := range shards {
		sh := sh
		opens[i] = func(sctx context.Context) (engine.Cursor, error) {
			return e.openShard(sctx, sh, sub, e.drainHints(sh, sub, rootIdx, perShardCap, workers))
		}
	}
	return gather(ctx, vars, shards, opens, keep, strip, perShardCap, e.part)
}

// gather builds the scatter-gather merge cursor: it opens one cursor per
// entry of opens concurrently (each under a shared child context), drains
// them into a fan-in channel, and streams the union in arrival order.
// shards[i] is the shard ID behind opens[i] (nil means opens[i] is shard
// i — the unpruned scatter and the chaos tests). keep, when non-nil, is
// the ownership filter (applied before strip and before the per-shard
// cap); strip drops the appended root column; perShardCap bounds the rows
// any one shard contributes (0 = unbounded). A failing shard cancels its
// siblings and surfaces its error; closing the merge cursor cancels every
// shard.
func gather(ctx context.Context, vars []string, shards []int, opens []openFunc, keep func(shard int, row []uint32) bool, strip bool, perShardCap int, part *Partitioned) engine.Cursor {
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, scancel := context.WithCancel(ctx)
	m := &mergeCursor{
		vars:   vars,
		ctx:    ctx,
		cancel: scancel,
		rows:   make(chan [][]uint32, gatherBuf),
		errs:   make(chan error, len(opens)),
	}
	var wg sync.WaitGroup
	for i := range opens {
		sh := i
		if shards != nil {
			sh = shards[i]
		}
		wg.Add(1)
		go func(sh int, open openFunc) {
			defer wg.Done()
			span := drainSpan(ctx, sh, false)
			// A panic in a shard cursor must not kill the process: it runs on
			// a drain goroutine where no handler-level recovery can reach it.
			// Convert it to a shard error so the merge fails the one query.
			err := func() (err error) {
				defer func() {
					if rec := recover(); rec != nil {
						err = fmt.Errorf("shard %d: drain panicked: %v", sh, rec)
					}
				}()
				return drainShard(obs.WithSpan(sctx, span), sh, open, keep, strip, perShardCap, part, m.rows, span)
			}()
			if err != nil {
				span.SetAttr("error", err.Error())
				m.errs <- err
				scancel() // fail fast: stop sibling shards
			}
			span.End()
		}(sh, opens[i])
	}
	go func() {
		wg.Wait()
		close(m.rows)
	}()
	return m
}

// mergeCursor is the consumer end of the fan-in channel: it pulls batches
// and yields their rows in place. It owns the scatter's child context —
// Close cancels every drain and unblocks parked senders by draining the
// channel to close.
type mergeCursor struct {
	vars   []string
	ctx    context.Context // parent: attributes cancellation when no shard reported
	cancel context.CancelFunc
	rows   chan [][]uint32
	errs   chan error

	batch [][]uint32
	idx   int
	done  bool
	err   error
}

func (m *mergeCursor) Vars() []string { return m.vars }

func (m *mergeCursor) Next() ([]uint32, error) {
	for {
		if m.idx < len(m.batch) {
			row := m.batch[m.idx]
			m.idx++
			return row, nil
		}
		if m.done {
			return nil, m.err
		}
		b, ok := <-m.rows
		if !ok {
			m.done = true
			select {
			case err := <-m.errs:
				m.err = err
			default:
				// A drainer parked on a send can exit on cancellation
				// without seeing its cursor's context error; report the
				// cause here.
				m.err = m.ctx.Err()
			}
			if m.err == nil {
				m.err = io.EOF
			}
			return nil, m.err
		}
		m.batch, m.idx = b, 0
	}
}

// Truncated is always false for the bare merge: caps are applied by the
// Limit wrapper above it.
func (m *mergeCursor) Truncated() bool { return false }

func (m *mergeCursor) Close() error {
	if m.done && m.err != nil {
		m.cancel()
		return nil
	}
	m.cancel()
	// Drain so drains parked on a full channel observe the cancel and exit;
	// the channel closes once every drain has.
	for range m.rows {
	}
	m.done = true
	if m.err == nil {
		m.err = io.EOF
	}
	m.batch, m.idx = nil, 0
	return nil
}

// drainShard opens and drains one shard's cursor into the fan-in channel
// in batches, applying the ownership filter, root stripping, and the
// per-shard cap. Rows accumulated before a cursor error are still flushed
// (rows before an error stand, mirroring the generator's contract). span,
// when non-nil, collects the drain's row/batch counters; all observation is
// batch-granular, so the per-row loop stays free of atomics and locks.
func drainShard(ctx context.Context, shard int, open openFunc, keep func(int, []uint32) bool, strip bool, perShardCap int, part *Partitioned, out chan<- [][]uint32, span *obs.Span) error {
	cur, err := open(ctx)
	if err != nil {
		return err
	}
	defer cur.Close()
	delivered := 0
	var batch [][]uint32
	// flush hands the batch over; non-blocking when block is false (the
	// batch is kept on a full channel). Returns false once ctx is done —
	// cancelled by a sibling's failure, the merge closing, or the caller's
	// context; the merge cursor reports the cause.
	flush := func(block bool) bool {
		if len(batch) == 0 {
			return true
		}
		if block {
			select {
			case out <- batch:
			case <-ctx.Done():
				return false
			}
		} else {
			select {
			case out <- batch:
			default:
				return true // channel busy: keep accumulating
			}
		}
		if part != nil {
			part.delivered[shard].Add(int64(len(batch)))
			part.batchRows.Observe(float64(len(batch)))
		}
		span.AddBatch(len(batch))
		delivered += len(batch)
		batch = nil
		return true
	}
	for {
		row, err := cur.Next()
		if err == io.EOF {
			flush(true)
			return nil
		}
		if err != nil {
			flush(true)
			return err
		}
		if keep != nil && !keep(shard, row) {
			continue
		}
		if strip {
			row = row[:len(row)-1]
		}
		batch = append(batch, row)
		if perShardCap > 0 && delivered+len(batch) >= perShardCap {
			flush(true)
			return nil
		}
		if n := len(batch); n >= gatherBatch {
			if !flush(true) {
				return nil
			}
		} else if n >= gatherFlushMin && n&(n-1) == 0 {
			flush(false)
		}
	}
}

// filterCursor is the single-survivor fast path: when statistics pruned the
// scatter down to one shard there is nothing to merge, so the ownership
// filter, root strip, drain cap, and delivered counter are applied inline
// on the caller's goroutine — no channel, no drain goroutine.
type filterCursor struct {
	inner engine.Cursor
	vars  []string
	shard int
	keep  func(int, []uint32) bool
	strip bool
	cap   int
	part  *Partitioned
	span  *obs.Span

	delivered int
	done      bool
	err       error
}

func newFilter(inner engine.Cursor, vars []string, shard int, keep func(int, []uint32) bool, strip bool, perShardCap int, part *Partitioned, span *obs.Span) engine.Cursor {
	return &filterCursor{
		inner: inner,
		vars:  vars,
		shard: shard,
		keep:  keep,
		strip: strip,
		cap:   perShardCap,
		part:  part,
		span:  span,
	}
}

func (f *filterCursor) Vars() []string { return f.vars }

func (f *filterCursor) Next() ([]uint32, error) {
	if f.done {
		return nil, f.err
	}
	if f.cap > 0 && f.delivered >= f.cap {
		return f.finish(io.EOF)
	}
	for {
		row, err := f.inner.Next()
		if err != nil {
			return f.finish(err)
		}
		if f.keep != nil && !f.keep(f.shard, row) {
			continue
		}
		if f.strip {
			row = row[:len(row)-1]
		}
		f.delivered++
		if f.part != nil {
			f.part.delivered[f.shard].Add(1)
		}
		f.span.AddRows(1)
		return row, nil
	}
}

func (f *filterCursor) finish(err error) ([]uint32, error) {
	f.done = true
	f.err = err
	f.span.End()
	return nil, err
}

func (f *filterCursor) Truncated() bool { return f.inner.Truncated() }
func (f *filterCursor) Close() error    { return f.inner.Close() }

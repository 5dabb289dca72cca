package main

// The traced run: the workload's window once untraced and once with spans
// around every request, then probes that time calls into each layer's
// public functions from outside. Every probe call is a span; the spans
// are kept in memory and written out when the run ends.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/live"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
)

// probeReps is how many timed repetitions each per-query probe makes
// after one untimed warm-up; a probe reports their median.
const probeReps = 5

// heapProbeQueries is the fixed count of distinct queries the retained-
// heap probes run. It is small on purpose: sharded execution retains so
// much per distinct query that an unbounded stream is OOM-killed.
const heapProbeQueries = 200

// writeProbePatches is how many patches the write-path probe applies
// back to back before it compacts; its visitors are numbered from
// writeProbeFirstPatch, past any the workload's writer used.
const (
	writeProbePatches    = 200
	writeProbeFirstPatch = 1 << 20
)

func runTraced(tr *tracer, rep *report, w *workload, e *env, s *stream, hc *http.Client, window time.Duration, dataDir string, counts map[int]int, seed int64, outDir string) error {
	st := e.st
	rep.add("setup.generate_s", e.phases.generate.Seconds(), "s", 1, "lubm.GenerateTo")
	rep.add("setup.store_build_s", e.phases.storeBuild.Seconds(), "s", 1, "store.Builder.Build")
	rep.add("setup.index_build_s", e.phases.indexBuild.Seconds(), "s", 1, "server.New, including the default engine's Inner")

	// The window on the workload's own servers, in untraced and traced
	// quarters that alternate, so drift in the machine's speed over the
	// window falls on both sides alike.
	before := e.srv.Stats()
	quarter := window / 4
	var wl writeLog
	var wg sync.WaitGroup
	if s.patch != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wl = openLoopWriter(hc, e.front.url, liveRate, 4*quarter, s.patch)
		}()
	}
	var plain, traced loopResult
	for i := 0; i < 2; i++ {
		plain.add(closedLoop(hc, s, quarter, 0, nil))
		e.handler.tr.Store(tr)
		traced.add(closedLoop(hc, s, quarter, 0, tr))
		e.handler.tr.Store(nil)
	}
	wg.Wait()
	rep.addReads(plain)
	rep.addReads(traced)
	rep.attempted += wl.attempts
	rep.fail(wl.failed, wl.firstErr)
	rep.add("trace.overhead_pct", 100*ratio(plain.qps()-traced.qps(), plain.qps()), "%", len(traced.lat),
		fmt.Sprintf("traced %.1f q/s against untraced %.1f q/s", traced.qps(), plain.qps()))
	rep.add("http.loopback_us", loopbackUs(tr.snapshot()), "us", len(traced.lat),
		"client request span minus server handler span, mean")
	after := e.srv.Stats()
	hits := float64(after.PlanCache.Hits - before.PlanCache.Hits)
	lookups := hits + float64(after.PlanCache.Misses-before.PlanCache.Misses)
	rep.add("server.plan_cache_hit_ratio", ratio(hits, lookups), "ratio", int(lookups),
		fmt.Sprintf("%.0f hits of %.0f lookups in the window", hits, lookups))
	rejected := float64(after.Rejected - before.Rejected)
	queries := float64(after.Queries - before.Queries)
	rep.add("server.rejected_share", ratio(rejected, queries), "ratio", int(queries),
		fmt.Sprintf("%.0f rejected of %.0f queries in the window", rejected, queries))
	rep.add("server.index_mb", float64(after.IndexMemoryBytes)/1e6, "MB", 0, "Stats().IndexMemoryBytes of the workload's server")
	if s.patch != nil {
		// Stop live-mixed's background compactor so the probes read over
		// the delta the writer left pending.
		e.srv.Close()
	}

	probe := tr.request("probe")
	p := collectPools(st)
	frontEnd(rep, probe, st, s, p, seed)
	if err := heapProbes(rep, probe, st, p, seed); err != nil {
		return err
	}

	// The serving store: the workload's own unsharded server, or, behind
	// cluster-loopback's coordinator, a plain in-memory server over the
	// same base.
	serving := e.srv
	if e.coord != nil {
		m := &env{st: st}
		if err := m.newServer(server.Config{Store: st}, probe); err != nil {
			return err
		}
		defer m.srv.Close()
		serving = m.srv
	}
	texts := tableQueries()
	eng, err := engines.New("emptyheaded", st)
	if err != nil {
		return err
	}
	engUs := perQuery(rep, probe, "engine", texts, func(q *query.BGP) (engine.Cursor, error) {
		return eng.Open(q, engine.ExecOpts{})
	})
	ls := serving.Live()
	ins, tombs := ls.DeltaSize()
	rep.add("live.delta_ops", float64(ins+tombs), "count", 0, fmt.Sprintf("%d inserts and %d tombstones pending at read time", ins, tombs))
	le, err := engines.NewLive("emptyheaded", ls)
	if err != nil {
		return err
	}
	liveUs := perQuery(rep, probe, "live", texts, func(q *query.BGP) (engine.Cursor, error) {
		return le.Open(q, engine.ExecOpts{})
	})
	rep.add("live.overlay_ratio", ratio(sum(liveUs), sum(engUs)), "ratio", len(texts),
		fmt.Sprintf("live %.0fus over engine %.0fus, 12 queries summed", sum(liveUs), sum(engUs)))

	serverUs := serveProbe(rep, probe, serving.Handler(), texts, counts, "server")
	rep.add("server.encode_share", ratio(sum(serverUs)-sum(liveUs), sum(serverUs)), "ratio", len(texts),
		fmt.Sprintf("RESIDUAL: handler %.0fus minus live %.0fus, over handler, 12 queries summed", sum(serverUs), sum(liveUs)))
	decodeProbe(rep, probe, eng, st, texts)

	if err := writeProbe(rep, probe, e, dataDir, p, seed); err != nil {
		return err
	}
	if err := distribution(rep, probe, e, hc, texts, counts, engUs); err != nil {
		return err
	}
	probe.end()
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// loopbackUs is the mean of client span minus its server.handler child:
// the time a request spent outside the handler (client, loopback TCP, HTTP
// framing).
func loopbackUs(spans []Span) float64 {
	handler := map[uint64]int64{}
	for _, s := range spans {
		if s.Name == "server.handler" {
			handler[s.Parent] = s.End - s.Start
		}
	}
	var total float64
	n := 0
	for _, s := range spans {
		if h, ok := handler[s.ID]; ok && s.Name == "client.query" {
			total += float64(s.End - s.Start - h)
			n++
		}
	}
	return ratio(total, float64(n)) / 1e3
}

// frontEnd times query.ParseSPARQL, plan.Compile and plan.ProfileQuery
// over the workload's texts: the 12 Table II queries, or fresh
// point-distinct texts on that workload.
func frontEnd(rep *report, parent *open, st *store.Store, s *stream, p *pools, seed int64) {
	var texts []string
	if s.distinct != nil {
		g := newDistinctTexts(p, seed+1) // an order the window did not use
		for i := 0; i < 120; i++ {
			texts = append(texts, g.text(i))
		}
	} else {
		qs := tableQueries()
		for _, n := range lubm.QueryNumbers {
			texts = append(texts, qs[n])
		}
	}
	var parse, compile, profile []float64
	for _, text := range texts {
		for r := 0; r < probeReps; r++ {
			var q *query.BGP
			parse = append(parse, us(parent.timed("query.ParseSPARQL", func() { q, _ = query.ParseSPARQL(text) })))
			if q == nil {
				continue
			}
			compile = append(compile, us(parent.timed("plan.Compile", func() { plan.Compile(q, st, plan.AllOptimizations) })))
			profile = append(profile, us(parent.timed("plan.ProfileQuery", func() { plan.ProfileQuery(q, st) })))
		}
	}
	rep.add("query.parse_us", median(parse), "us", len(parse), fmt.Sprintf("median over %d texts", len(texts)))
	rep.add("plan.compile_us", median(compile), "us", len(compile), "")
	rep.add("plan.profile_us", median(profile), "us", len(profile), "")
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// heapProbes runs the same heapProbeQueries distinct point queries through
// an unsharded and a 2-shard engine and reports the live heap each
// retains per query.
func heapProbes(rep *report, parent *open, st *store.Store, p *pools, seed int64) error {
	g := newDistinctTexts(p, seed+2)
	var qs []*query.BGP
	for i := 0; i < heapProbeQueries; i++ {
		q, err := query.ParseSPARQL(g.text(i))
		if err != nil {
			return err
		}
		qs = append(qs, q)
	}
	// measure builds an engine, runs every query through it once, and
	// returns the live heap it grew by per query while still holding it.
	measure := func(name string, build func() (engine.Engine, error)) (float64, error) {
		eng, err := build()
		if err != nil {
			return 0, err
		}
		built := liveHeapMB()
		parent.timed(name, func() {
			for _, q := range qs {
				if _, err = engine.Collect(eng.Open(q, engine.ExecOpts{})); err != nil {
					return
				}
			}
		})
		grown := liveHeapMB() - built
		runtime.KeepAlive(eng)
		return grown * 1e6 / 1024 / float64(len(qs)), err
	}
	kb, err := measure("engines.New(auto) distinct queries", func() (engine.Engine, error) {
		return engines.New("auto", st)
	})
	if err != nil {
		return err
	}
	rep.add("engine.heap_kb_per_query", kb, "KB", len(qs), "live heap growth per distinct query, auto engine")
	kb, err = measure("engines.NewSharded(auto) distinct queries", func() (engine.Engine, error) {
		part, err := shard.Partition(st, clusterShards)
		if err != nil {
			return nil, err
		}
		return engines.NewSharded("auto", part)
	})
	if err != nil {
		return err
	}
	rep.add("shard.heap_kb_per_query", kb, "KB", len(qs), "the same queries over 2 subject-hash shards")
	return nil
}

// perQuery times Open plus drain of every Table II query through open and
// reports each query's median as <layer>.q<n>_us; it returns the medians
// in lubm.QueryNumbers order.
func perQuery(rep *report, parent *open, layer string, texts map[int]string, open func(*query.BGP) (engine.Cursor, error)) []float64 {
	var out []float64
	for _, n := range lubm.QueryNumbers {
		q := query.MustParseSPARQL(texts[n])
		var samples []float64
		rows := 0
		for r := 0; r <= probeReps; r++ {
			d := parent.timed(fmt.Sprintf("%s.q%d", layer, n), func() {
				res, err := engine.Collect(open(q))
				if err == nil {
					rows = len(res.Rows)
				}
			})
			if r > 0 { // the first run warms lazily built indexes and plans
				samples = append(samples, us(d))
			}
		}
		m := median(samples)
		rep.add(fmt.Sprintf("%s.q%d_us", layer, n), m, "us", len(samples), fmt.Sprintf("%d rows", rows))
		out = append(out, m)
	}
	return out
}

// serveProbe times Handler().ServeHTTP of /query into a recorder for
// every Table II query (JSON, engine emptyheaded), checks each answer's
// row count, and reports <layer>.q<n>_us.
func serveProbe(rep *report, parent *open, h http.Handler, texts map[int]string, counts map[int]int, layer string) []float64 {
	var out []float64
	var rows, size, mallocs float64
	for _, n := range lubm.QueryNumbers {
		target := queryURL("", texts[n], "engine=emptyheaded")
		var samples []float64
		for r := 0; r <= probeReps; r++ {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, target, nil)
			var m0, m1 runtime.MemStats
			if r == 1 {
				runtime.ReadMemStats(&m0)
			}
			d := parent.timed(fmt.Sprintf("%s.q%d", layer, n), func() { h.ServeHTTP(rec, req) })
			if r == 1 {
				runtime.ReadMemStats(&m1)
				mallocs += float64(m1.Mallocs - m0.Mallocs)
			}
			rep.attempted++
			got, _, err := countRows(rec.Body.Bytes())
			if rec.Code != http.StatusOK || err != nil || got != counts[n] {
				rep.fail(1, fmt.Sprintf("%s q%d: status %d, %d rows (oracle %d), %v", layer, n, rec.Code, got, counts[n], err))
				continue
			}
			if r == 1 {
				rows += float64(got)
				size += float64(rec.Body.Len())
			}
			if r > 0 {
				samples = append(samples, us(d))
			}
		}
		m := median(samples)
		rep.add(fmt.Sprintf("%s.q%d_us", layer, n), m, "us", len(samples), "")
		out = append(out, m)
	}
	if layer == "server" {
		rep.add("server.bytes_per_row", ratio(size, rows), "bytes", int(rows), fmt.Sprintf("%.0f body bytes over %.0f rows, 12 queries", size, rows))
		rep.add("server.allocs_per_row", ratio(mallocs, rows), "count", int(rows), fmt.Sprintf("%.0f mallocs over %.0f rows, 12 queries", mallocs, rows))
	}
	return out
}

// decodeProbe times Dictionary.Decode of every id of every answer row.
func decodeProbe(rep *report, parent *open, eng engine.Engine, st *store.Store, texts map[int]string) {
	d := st.Dict()
	var total time.Duration
	rows := 0
	for _, n := range lubm.QueryNumbers {
		res, err := engine.Execute(eng, query.MustParseSPARQL(texts[n]))
		if err != nil {
			continue
		}
		total += parent.timed(fmt.Sprintf("dict.Decode q%d", n), func() {
			for _, row := range res.Rows {
				for _, id := range row {
					d.Decode(id)
				}
			}
		})
		rows += len(res.Rows)
	}
	rep.add("dict.decode_ns_per_row", ratio(float64(total), float64(rows)), "ns", rows, fmt.Sprintf("%d rows of the 12 queries", rows))
}

// writeProbe applies live-mixed's patch stream straight to a durable
// store (WAL fsync always): writeProbePatches back to back, then a
// compaction while the writer keeps its 100 patches/s schedule. On
// live-mixed the store is the workload's own, after the reads were
// probed; elsewhere it is the seeded data dir, reopened.
func writeProbe(rep *report, parent *open, e *env, dataDir string, p *pools, seed int64) error {
	ds, took := e.ds, e.phases.durableOpen
	if ds == nil {
		var err error
		if ds, took, err = openDurable(dataDir, parent); err != nil {
			return err
		}
		defer ds.Close()
	}
	rep.add("setup.durable_open_s", took.Seconds(), "s", 1, "repro.OpenDataset reopening a seeded data dir, fsync always")
	ls := ds.Live()
	patches := livePatches(p, seed)
	apply := func(k int) (start time.Time, d time.Duration, err error) {
		body, _, _ := patches(writeProbeFirstPatch + k)
		patch, err := live.ParsePatch(bytes.NewReader([]byte(body)))
		if err != nil {
			return time.Time{}, 0, err
		}
		start = time.Now()
		d = parent.timed("live.Store.Apply", func() { _, err = ls.Apply(patch) })
		return start, d, err
	}
	w0 := ds.Durable().Log().Stats()
	var all []float64
	var maxApply time.Duration
	k := 0
	for ; k < writeProbePatches; k++ {
		_, d, err := apply(k)
		if err != nil {
			return err
		}
		all = append(all, us(d))
		if d > maxApply {
			maxApply = d
		}
	}
	w1 := ds.Durable().Log().Stats()
	n := float64(writeProbePatches)
	rep.add("wal.bytes_per_update", float64(w1.Bytes-w0.Bytes)/n, "bytes", writeProbePatches, "")
	rep.add("wal.syncs_per_update", float64(w1.Syncs-w0.Syncs)/n, "count", writeProbePatches, "")
	rep.add("wal.fsync_p50_us", w1.FsyncLatency.Quantile(0.5)*1e6, "us", int(w1.FsyncLatency.Count), "durable Stats().WAL fsync histogram")

	// Compact while the writer keeps its schedule; an Apply that overlaps
	// the compaction waits for it.
	type compacted struct {
		cs         live.CompactStats
		start, end time.Time
		err        error
	}
	done := make(chan compacted, 1)
	go func() {
		var c compacted
		c.start = time.Now()
		parent.timed("live.Store.Compact", func() { c.cs, c.err = ls.Compact() })
		c.end = time.Now()
		done <- c
	}()
	type applied struct {
		start time.Time
		d     time.Duration
	}
	var during []applied
	period := time.Second / liveRate
	next := time.Now()
	var c compacted
	for finished := false; !finished; {
		select {
		case c = <-done:
			finished = true
		default:
		}
		time.Sleep(time.Until(next))
		next = next.Add(period)
		start, d, err := apply(k)
		k++
		if err != nil {
			return err
		}
		during = append(during, applied{start, d})
		all = append(all, us(d))
		if d > maxApply {
			maxApply = d
		}
	}
	if c.err != nil {
		return c.err
	}
	var stall time.Duration
	for _, a := range during {
		if a.start.Before(c.end) && a.start.Add(a.d).After(c.start) && a.d > stall {
			stall = a.d
		}
	}
	rep.add("live.apply_us", median(all), "us", len(all), "median live.Store.Apply, fsync always")
	rep.add("live.apply_max_ms", float64(maxApply)/1e6, "ms", len(all), "")
	rep.add("live.compact_ms", float64(c.end.Sub(c.start))/1e6, "ms", 1, "the whole Compact call, persistence included")
	rep.add("live.compact_swap_ms", float64(c.cs.Duration)/1e6, "ms", 1, "CompactStats.Duration")
	rep.add("live.writer_stall_ms", float64(stall)/1e6, "ms", len(during), "longest Apply overlapping the Compact")
	rep.add("segment.mb_per_compaction", float64(ds.Durable().Stats().SegmentBytes)/1e6, "MB", 1, "segment written by the compaction")
	return nil
}

// distribution times sharded execution against unsharded, an in-process
// sharded server against the cluster coordinator, and reads the
// scatter-gather and cluster counters.
func distribution(rep *report, parent *open, e *env, hc *http.Client, texts map[int]string, counts map[int]int, engUs []float64) error {
	part, err := shard.Partition(e.st, clusterShards)
	if err != nil {
		return err
	}
	se, err := engines.NewSharded("emptyheaded", part)
	if err != nil {
		return err
	}
	shardUs := perQuery(rep, parent, "shard", texts, func(q *query.BGP) (engine.Cursor, error) {
		return se.Open(q, engine.ExecOpts{})
	})
	rep.add("shard.drain_ms", sum(shardUs)/1e3, "ms", len(shardUs), "engines.NewSharded Open plus drain, 12 queries summed")
	rep.add("shard.overhead_ratio", ratio(sum(shardUs), sum(engUs)), "ratio", len(shardUs),
		fmt.Sprintf("sharded %.0fus over unsharded %.0fus", sum(shardUs), sum(engUs)))

	local := &env{st: e.st}
	if err := local.newServer(server.Config{Store: e.st, Shards: clusterShards}, parent); err != nil {
		return err
	}
	defer local.srv.Close()
	localUs := serveProbe(rep, parent, local.srv.Handler(), texts, counts, "sharded-server")
	sh := local.srv.Stats().Sharding
	if sh == nil {
		return fmt.Errorf("sharded server reports no sharding stats")
	}
	reuses, compiled := float64(sh.PlanReuseHits), float64(sh.PlansCompiled)
	rep.add("shard.plan_reuse_ratio", ratio(reuses, reuses+compiled), "ratio", int(reuses+compiled),
		fmt.Sprintf("%.0f reuses of %.0f scatter-plan lookups", reuses, reuses+compiled))
	targets := float64(sh.GroupsPlanned) * float64(sh.Shards)
	rep.add("shard.pruned_share", ratio(float64(sh.ShardsPruned), targets), "ratio", int(targets),
		fmt.Sprintf("%d pruned of %.0f (group, shard) targets", sh.ShardsPruned, targets))

	c := e
	if e.coord == nil {
		c = &env{st: e.st}
		t := time.Now()
		if err := c.startCluster(hc, parent); err == nil {
			err = c.serveFront(hc)
		}
		if err != nil {
			c.close()
			return err
		}
		defer c.close()
		c.phases.clusterReady = time.Since(t)
	}
	rep.add("setup.cluster_ready_s", c.phases.clusterReady.Seconds(), "s", 1, "2 workers and the coordinator, boot to healthy")
	coordUs := serveProbe(rep, parent, c.srv.Handler(), texts, counts, "coordinator")
	rep.add("cluster.transport_share", ratio(sum(coordUs)-sum(localUs), sum(coordUs)), "ratio", len(coordUs),
		fmt.Sprintf("coordinator %.0fus minus in-process sharded %.0fus, over coordinator", sum(coordUs), sum(localUs)))
	cs := c.coord.Stats()
	queries := float64(c.srv.Stats().Queries)
	rep.add("cluster.first_row_p50_ms", cs.FirstRowP50Ms, "ms", 0, "Coordinator.Stats()")
	rep.add("cluster.first_row_p99_ms", cs.FirstRowP99Ms, "ms", 0, "")
	rep.add("cluster.attempts_per_query", ratio(float64(cs.Attempts), queries), "count", int(queries),
		fmt.Sprintf("%d attempts over %.0f coordinator queries", cs.Attempts, queries))
	rep.add("cluster.retry_share", ratio(float64(cs.Retries), float64(cs.Attempts)), "ratio", int(cs.Attempts),
		fmt.Sprintf("%d retries of %d attempts", cs.Retries, cs.Attempts))
	rep.add("cluster.hedge_share", ratio(float64(cs.Hedges), float64(cs.Attempts)), "ratio", int(cs.Attempts),
		fmt.Sprintf("%d hedges of %d attempts", cs.Hedges, cs.Attempts))
	rep.add("cluster.hedge_win_ratio", ratio(float64(cs.HedgeWins), float64(cs.Hedges)), "ratio", int(cs.Hedges),
		fmt.Sprintf("%d wins of %d hedges", cs.HedgeWins, cs.Hedges))
	return nil
}

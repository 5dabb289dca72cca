package bench

// perf.go is the machine-readable perf trajectory: RunPerfSuite measures
// the WCOJ hot-path kernels (set intersection and seek, full-store trie
// builds, Table II join queries, the sharded-vs-unsharded pairs at 4 and 8
// shards plus a scale-8 sharded section, the cold-start boot trajectory
// across on-disk formats, and WAL append throughput per fsync policy) and
// cmd/benchjson serializes the report as
// BENCH_<pr>.json at the repo root, which CI regenerates and uploads as an
// artifact on every PR. Future PRs diff their report against the committed
// one, so "made the hot path faster" stays a number with provenance instead
// of a commit-message claim.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/segment"
	"repro/internal/set"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/trie"
	"repro/internal/wal"
)

// PerfResult is one measured kernel or query.
type PerfResult struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// VarPct is the observed spread across repetitions as a percentage of
	// the best time ((worst-best)/best·100). The regression gate widens its
	// threshold by this, so noisy measurements don't fail builds.
	VarPct float64 `json:"var_pct,omitempty"`
	// Rows is the result cardinality for query entries (a changed count
	// between two reports means the comparison is void).
	Rows int `json:"rows,omitempty"`
}

// PerfReport is the BENCH_<pr>.json payload.
type PerfReport struct {
	Schema string `json:"schema"` // "repro-bench/v1"
	// Scale is the LUBM scale factor the dataset entries used.
	Scale int `json:"lubm_scale"`
	// Reps is the per-measurement repetition count (best-of for kernels,
	// paper protocol for queries).
	Reps    int          `json:"reps"`
	Results []PerfResult `json:"results"`
	// Derived holds ratios computed from Results (e.g. the flat-vs-pointer
	// trie build speedup this PR's acceptance gates on).
	Derived map[string]float64 `json:"derived,omitempty"`
	// SeedBaseline carries forward ns/op numbers measured at an earlier
	// commit (name → ns/op), so a single file tells the before/after story.
	SeedBaseline map[string]float64 `json:"seed_baseline_ns_per_op,omitempty"`
}

// timeNs runs fn reps times and returns the best wall time in nanoseconds —
// kernels want the least-noise estimate, matching testing.B's convention of
// reporting the steady state rather than the mean with outliers.
func timeNs(reps int, fn func()) float64 {
	ns, _ := timeNsVar(reps, fn)
	return ns
}

// timeNsVar additionally returns the repetition spread as a percentage of
// the best time, the per-result noise bound the regression gate consumes.
func timeNsVar(reps int, fn func()) (nsPerOp, varPct float64) {
	return timeNsVarN(reps, 1, fn)
}

// timeNsVarN times reps repetitions of an inner loop of n calls, reporting
// per-call nanoseconds. Micro-kernels (a few hundred µs per call) use n > 1
// so one scheduler hiccup or GC assist doesn't double a rep — the loop
// amortizes it. VarPct is the gap between the best and second-best rep:
// since NsPerOp is a best-of statistic, its run-to-run reproducibility is
// how closely an independent rep approaches the best — the worst rep only
// measures how loaded the machine was, which would let a real regression
// hide behind one noisy outlier.
func timeNsVarN(reps, n int, fn func()) (nsPerOp, varPct float64) {
	if reps < 1 {
		reps = 1
	}
	fn() // warm caches and lazy state outside the timing
	var best, second time.Duration
	for i := 0; i < reps; i++ {
		runtime.GC() // pay earlier workloads' GC debt outside the timed region
		start := time.Now()
		for k := 0; k < n; k++ {
			fn()
		}
		d := time.Since(start) / time.Duration(n)
		switch {
		case best == 0 || d < best:
			best, second = d, best
		case second == 0 || d < second:
			second = d
		}
	}
	if best > 0 && second > 0 {
		varPct = 100 * float64(second-best) / float64(best)
	}
	return float64(best), varPct
}

// perfGenSorted produces n sorted distinct values at the given density.
func perfGenSorted(rng *rand.Rand, n int, density float64) []uint32 {
	domain := int(float64(n) / density)
	seen := map[uint32]bool{}
	vals := make([]uint32, 0, n)
	for len(vals) < n {
		v := uint32(rng.Intn(domain))
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// setKernels measures intersection and seek across both layouts.
func setKernels(reps int) []PerfResult {
	rng := rand.New(rand.NewSource(11))
	const n = 1 << 16
	sparseVals := perfGenSorted(rng, n, 0.001)
	sparseProbes := perfGenSorted(rng, n, 0.001)
	denseVals := perfGenSorted(rng, n, 0.5)
	denseProbes := perfGenSorted(rng, n, 0.5)
	sparseA := set.FromSorted(sparseVals, set.PolicyUintOnly)
	sparseB := set.FromSorted(sparseProbes, set.PolicyUintOnly)
	denseA := set.FromSorted(denseVals, set.PolicyAuto)
	denseB := set.FromSorted(denseProbes, set.PolicyAuto)

	// Micro-kernels cost microseconds, so repetitions are nearly free:
	// run 5× the suite's rep count with an 8-call inner loop per rep. The
	// best-of estimate then reflects the kernel, not whichever slice of a
	// noisy machine the suite happened to land on.
	result := func(name string, fn func()) PerfResult {
		ns, v := timeNsVarN(5*reps, 8, fn)
		return PerfResult{Name: name, NsPerOp: ns, VarPct: v}
	}
	var out []PerfResult
	out = append(out, result("set/intersect/uint_uint", func() { set.Intersect(sparseA, sparseB) }))
	out = append(out, result("set/intersect/bitset_bitset", func() { set.Intersect(denseA, denseB) }))
	out = append(out, result("set/intersect/mixed", func() { set.Intersect(sparseA, denseB) }))
	// The seek workload is leapfrog's inner loop: one forward pass over the
	// set, seeking to each member of an independent same-density set in
	// order. (Earlier reports swept every third value of the domain, which
	// mostly timed no-op SeekGE calls whose target was already behind the
	// cursor — a call-overhead measurement, not a seek measurement.)
	seek := func(s *set.Set, probes []uint32) func() {
		return func() {
			var it set.Iter
			it.Reset(s)
			for _, v := range probes {
				if !it.SeekGE(v) {
					break
				}
			}
		}
	}
	out = append(out, result("set/seek/uint", seek(sparseA, sparseProbes)))
	out = append(out, result("set/seek/bitset", seek(denseA, denseProbes)))
	return out
}

// trieBuilds measures one full-store index rebuild — every relation's
// (S,O) and (O,S) trie under the auto layout policy, exactly the work
// live.Compact() queues up for the serving path — through the flat arena
// builder and through the retired pointer-per-node reference builder.
func trieBuilds(st *store.Store, reps int) []PerfResult {
	type relCols struct{ so, os [][]uint32 }
	var rels []relCols
	for _, p := range st.Predicates() {
		rel := st.Relation(p)
		rels = append(rels, relCols{
			so: [][]uint32{rel.S, rel.O},
			os: [][]uint32{rel.O, rel.S},
		})
	}
	flat, flatVar := timeNsVar(reps, func() {
		for _, rc := range rels {
			trie.BuildFromColumns(rc.so, set.PolicyAdaptive)
			trie.BuildFromColumns(rc.os, set.PolicyAdaptive)
		}
	})
	pointer, pointerVar := timeNsVar(reps, func() {
		for _, rc := range rels {
			trie.BuildReference(rc.so, set.PolicyAdaptive)
			trie.BuildReference(rc.os, set.PolicyAdaptive)
		}
	})
	return []PerfResult{
		{Name: "trie/build_full_store/flat", NsPerOp: flat, VarPct: flatVar},
		{Name: "trie/build_full_store/pointer", NsPerOp: pointer, VarPct: pointerVar},
	}
}

// tableIIQueries measures the WCOJ engines on join-heavy Table II queries.
var perfQueryNumbers = []int{1, 2, 7, 8, 14}

func tableIIQueries(st *store.Store, cfg Config) ([]PerfResult, error) {
	var out []PerfResult
	for _, engName := range []string{"emptyheaded", "logicblox", "auto"} {
		e, err := engines.New(engName, st)
		if err != nil {
			return nil, err
		}
		for _, qn := range perfQueryNumbers {
			q, err := query.ParseSPARQL(lubm.Query(qn, cfg.Scale))
			if err != nil {
				return nil, err
			}
			d, varPct, rows, err := MeasureVar(cfg.Reps, e, q)
			if err != nil {
				return nil, fmt.Errorf("%s q%d: %w", engName, qn, err)
			}
			out = append(out, PerfResult{
				Name:    fmt.Sprintf("wcoj/%s/lubm_q%d", engName, qn),
				NsPerOp: float64(d),
				VarPct:  varPct,
				Rows:    rows,
			})
		}
	}
	return out, nil
}

// shardedPair measures the scatter-gather engine against its unsharded
// twin on the two canonical shapes (subject-star q2, path q8), at 4 and 8
// shards. The repetition protocol matches the serving path's behaviour:
// MeasureVar compiles the scatter plan once and the warmup run fills the
// join path's memoized build tables, so the timed reps measure the
// repeated-query hot path a plan-cache hit pays.
func shardedPair(st *store.Store, cfg Config) ([]PerfResult, error) {
	eng, err := engines.New("emptyheaded", st)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		e    engine.Engine
	}{{"unsharded", eng}}
	for _, n := range []int{4, 8} {
		p, err := shard.Partition(st, n)
		if err != nil {
			return nil, err
		}
		sharded, err := engines.NewSharded("emptyheaded", p)
		if err != nil {
			return nil, err
		}
		variants = append(variants, struct {
			name string
			e    engine.Engine
		}{fmt.Sprintf("shards_%d", n), sharded})
	}
	var out []PerfResult
	for _, qn := range []int{2, 8} {
		q, err := query.ParseSPARQL(lubm.Query(qn, cfg.Scale))
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			d, varPct, rows, err := MeasureVar(cfg.Reps, v.e, q)
			if err != nil {
				return nil, fmt.Errorf("sharded pair q%d/%s: %w", qn, v.name, err)
			}
			out = append(out, PerfResult{
				Name:    fmt.Sprintf("sharded/emptyheaded/lubm_q%d/%s", qn, v.name),
				NsPerOp: float64(d),
				VarPct:  varPct,
				Rows:    rows,
			})
		}
	}
	return out, nil
}

// shardedScale8 measures the 8-shard engine against the unsharded one on a
// LUBM scale-8 dataset — the scale where sharding must pay for itself, not
// just stay within bounds. The section generates its own dataset (the
// suite's main dataset stays at cfg.Scale so the kernel and trie numbers
// remain comparable across reports).
func shardedScale8(cfg Config) ([]PerfResult, error) {
	const scale = 8
	st := NewDataset(Config{Scale: scale, Seed: cfg.Seed})
	eng, err := engines.New("emptyheaded", st)
	if err != nil {
		return nil, err
	}
	p, err := shard.Partition(st, 8)
	if err != nil {
		return nil, err
	}
	sharded, err := engines.NewSharded("emptyheaded", p)
	if err != nil {
		return nil, err
	}
	var out []PerfResult
	for _, qn := range []int{2, 8, 14} {
		q, err := query.ParseSPARQL(lubm.Query(qn, scale))
		if err != nil {
			return nil, err
		}
		for _, v := range []struct {
			name string
			e    engine.Engine
		}{{"unsharded", eng}, {"shards_8", sharded}} {
			d, varPct, rows, err := MeasureVar(cfg.Reps, v.e, q)
			if err != nil {
				return nil, fmt.Errorf("sharded scale8 q%d/%s: %w", qn, v.name, err)
			}
			out = append(out, PerfResult{
				Name:    fmt.Sprintf("sharded/emptyheaded/scale8/lubm_q%d/%s", qn, v.name),
				NsPerOp: float64(d),
				VarPct:  varPct,
				Rows:    rows,
			})
		}
	}
	return out, nil
}

// coldStart measures the boot trajectory: wall time from an on-disk
// artifact to a query-ready store. "Ready" includes forcing every
// relation's (S,O) and (O,S) tries — production builds them lazily, but the
// first queries pay for them, so a boot time without index builds would
// flatter the parse path. Three formats, ordered by how much work the file
// already carries: N-Triples (parse + dictionary-encode + build + index),
// binary snapshot (parse skipped, indexes rebuilt), and the mmap-able
// segment written by the durable storage engine (indexes ship in the file;
// only set headers are rebuilt, one O(nodes) pass).
func coldStart(st *store.Store, cfg Config) ([]PerfResult, error) {
	dir, err := os.MkdirTemp("", "bench-coldstart")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ntPath := filepath.Join(dir, "data.nt")
	snapPath := filepath.Join(dir, "data.snap")
	segPath := filepath.Join(dir, "base.seg")

	f, err := os.Create(ntPath)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	d := st.Dict()
	for _, t := range st.Triples() {
		line := rdf.Triple{S: d.Decode(t.S), P: d.Decode(t.P), O: d.Decode(t.O)}.AppendNT(bw.AvailableBuffer())
		bw.Write(append(line, '\n'))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := st.WriteSnapshotFile(snapPath); err != nil {
		return nil, err
	}
	if err := segment.Write(segPath, st); err != nil {
		return nil, err
	}

	force := func(s *store.Store) {
		for _, p := range s.Predicates() {
			r := s.Relation(p)
			r.TrieSO(set.PolicyAdaptive)
			r.TrieOS(set.PolicyAdaptive)
		}
	}
	var bootErr error
	ntNs, ntVar := timeNsVar(cfg.Reps, func() {
		f, err := os.Open(ntPath)
		if err != nil {
			bootErr = err
			return
		}
		defer f.Close()
		b := store.NewBuilder()
		rd := rdf.NewReader(bufio.NewReaderSize(f, 1<<20))
		for {
			t, err := rd.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				bootErr = err
				return
			}
			b.Add(t)
		}
		force(b.Build())
	})
	snapNs, snapVar := timeNsVar(cfg.Reps, func() {
		f, err := os.Open(snapPath)
		if err != nil {
			bootErr = err
			return
		}
		defer f.Close()
		s, err := store.ReadSnapshot(bufio.NewReaderSize(f, 1<<20))
		if err != nil {
			bootErr = err
			return
		}
		force(s)
	})
	segNs, segVar := timeNsVar(cfg.Reps, func() {
		l, err := segment.Open(segPath)
		if err != nil {
			bootErr = err
			return
		}
		force(l.Store)
		l.Close()
	})
	if bootErr != nil {
		return nil, bootErr
	}
	return []PerfResult{
		{Name: "coldstart/ntriples_parse_build", NsPerOp: ntNs, VarPct: ntVar},
		{Name: "coldstart/snapshot_read_build", NsPerOp: snapNs, VarPct: snapVar},
		{Name: "coldstart/segment_mmap", NsPerOp: segNs, VarPct: segVar},
	}, nil
}

// walAppend measures the write-ahead log's framed append at each fsync
// policy, with an 8-op batch (the typical /update shape). ns/op is per
// AppendPatch call; "always" is dominated by the per-call fsync, which is
// exactly the durability price it buys.
func walAppend(reps int) ([]PerfResult, error) {
	dir, err := os.MkdirTemp("", "bench-wal")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ops := make([]wal.Op, 8)
	for i := range ops {
		ops[i] = wal.Op{Triple: rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://bench/s%d", i)),
			P: rdf.NewIRI("http://bench/p"),
			O: rdf.NewIRI(fmt.Sprintf("http://bench/o%d", i)),
		}}
	}
	batch := wal.Batch{Ops: ops}
	policies := []struct {
		name string
		pol  wal.Policy
	}{
		{"always", wal.Policy{Mode: wal.SyncAlways}},
		{"interval_50ms", wal.Policy{Mode: wal.SyncInterval, Interval: 50 * time.Millisecond}},
		{"off", wal.Policy{Mode: wal.SyncOff}},
	}
	var out []PerfResult
	for i, pc := range policies {
		log, _, err := wal.Open(filepath.Join(dir, fmt.Sprintf("wal%d.log", i)),
			pc.pol, func(wal.Batch) error { return nil })
		if err != nil {
			return nil, err
		}
		const appendsPerRound = 16
		var appendErr error
		ns, varPct := timeNsVar(reps, func() {
			for k := 0; k < appendsPerRound; k++ {
				if err := log.AppendPatch(batch); err != nil {
					appendErr = err
					return
				}
			}
		})
		ns /= appendsPerRound
		cerr := log.Close()
		if appendErr != nil {
			return nil, appendErr
		}
		if cerr != nil {
			return nil, cerr
		}
		out = append(out, PerfResult{Name: "wal/append_8op/" + pc.name, NsPerOp: ns, VarPct: varPct})
	}
	return out, nil
}

// RunPerfSuite measures the full hot-path suite on a fresh LUBM dataset.
func RunPerfSuite(cfg Config) (*PerfReport, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	st := NewDataset(cfg)
	report := &PerfReport{Schema: "repro-bench/v1", Scale: cfg.Scale, Reps: cfg.Reps}
	report.Results = append(report.Results, setKernels(cfg.Reps)...)
	report.Results = append(report.Results, trieBuilds(st, cfg.Reps)...)
	qr, err := tableIIQueries(st, cfg)
	if err != nil {
		return nil, err
	}
	report.Results = append(report.Results, qr...)
	sp, err := shardedPair(st, cfg)
	if err != nil {
		return nil, err
	}
	report.Results = append(report.Results, sp...)
	s8, err := shardedScale8(cfg)
	if err != nil {
		return nil, err
	}
	report.Results = append(report.Results, s8...)
	cs, err := coldStart(st, cfg)
	if err != nil {
		return nil, err
	}
	report.Results = append(report.Results, cs...)
	wa, err := walAppend(cfg.Reps)
	if err != nil {
		return nil, err
	}
	report.Results = append(report.Results, wa...)

	report.Derived = map[string]float64{}
	byName := map[string]float64{}
	for _, r := range report.Results {
		byName[r.Name] = r.NsPerOp
	}
	if f, p := byName["trie/build_full_store/flat"], byName["trie/build_full_store/pointer"]; f > 0 {
		report.Derived["trie_build_speedup_flat_vs_pointer"] = p / f
	}
	if nt, seg := byName["coldstart/ntriples_parse_build"], byName["coldstart/segment_mmap"]; seg > 0 {
		report.Derived["cold_start_speedup_segment_vs_ntriples"] = nt / seg
	}
	if sn, seg := byName["coldstart/snapshot_read_build"], byName["coldstart/segment_mmap"]; seg > 0 {
		report.Derived["cold_start_speedup_segment_vs_snapshot"] = sn / seg
	}
	// Sharded speedups: unsharded/sharded per query and shard count — > 1
	// means the scatter-gather path wins outright, and the committed report
	// makes "the 18× regression stayed fixed" a gated number.
	for _, qn := range []int{2, 8} {
		u := byName[fmt.Sprintf("sharded/emptyheaded/lubm_q%d/unsharded", qn)]
		for _, n := range []int{4, 8} {
			if s := byName[fmt.Sprintf("sharded/emptyheaded/lubm_q%d/shards_%d", qn, n)]; s > 0 {
				report.Derived[fmt.Sprintf("sharded_speedup_lubm_q%d_shards_%d", qn, n)] = u / s
			}
		}
	}
	for _, qn := range []int{2, 8, 14} {
		u := byName[fmt.Sprintf("sharded/emptyheaded/scale8/lubm_q%d/unsharded", qn)]
		if s := byName[fmt.Sprintf("sharded/emptyheaded/scale8/lubm_q%d/shards_8", qn)]; s > 0 {
			report.Derived[fmt.Sprintf("sharded_speedup_scale8_lubm_q%d_shards_8", qn)] = u / s
		}
	}
	return report, nil
}

// WriteJSON serializes the report (indented, trailing newline) to path.
func (r *PerfReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

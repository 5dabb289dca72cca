// Command servebench is the repository's serving benchmark. It boots the
// real internal/server handler on loopback listeners, drives one named
// workload from a single process with at most two client connections,
// checks every answer, and prints each metric with its unit and sample
// count. The last line of its output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with -trace 1 the run is a separate traced run that times calls into each
// layer's public functions from outside and reports the per-layer ones.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash servebench/run.sh --workload lubm-table2 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
)

func main() {
	wname := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: drives every request and patch stream")
	seconds := flag.Int("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end run; 1: traced per-layer run")
	selftest := flag.Bool("selftest", false, "feed the checker one wrong expected count; the run must report it")
	flag.Parse()

	w := findWorkload(*wname)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "usage: servebench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *selftest); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int    // 0 when the number is not a sample statistic
	note    string // base of a ratio, flags, provenance
}

// report collects one run's metrics and checks.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	errs      []string
	deferred  []deferredCheck // reads whose count is checked after the run
}

func (r *report) add(name string, value float64, unit string, samples int, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples, note})
}

// fail records failed operations and the first reason.
func (r *report) fail(n int, why string) {
	r.failed += n
	if why != "" {
		r.errs = append(r.errs, why)
	}
}

// latency adds the median and p99 of ds under prefix, flagging a p99 with
// fewer than ten samples beyond it.
func (r *report) latency(prefix string, ds []time.Duration) {
	v := msValues(ds)
	note := fmt.Sprintf("%d beyond p99", beyond(len(v), 0.99))
	if beyond(len(v), 0.99) < 10 {
		note += "; FEWER THAN 10 SAMPLES BEYOND p99"
	}
	r.add(prefix+"_p50_ms", quantile(v, 0.5), "ms", len(v), "")
	r.add(prefix+"_p99_ms", quantile(v, 0.99), "ms", len(v), note)
}

// warmup is how long a run sends its stream, checked but untimed, before
// the window opens.
const warmup = 2 * time.Second

// outDir holds run data (removed when the run ends) and span dumps.
var outDir = filepath.Join(".bench_build", "out")

func run(w *workload, seed int64, window time.Duration, traced, selftest bool) error {
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	var dataDir string
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	repeats := setupRepeats
	var tr *tracer
	var setupSpan *open
	if traced {
		// The traced run sets up once, recording each step as a span.
		repeats = 1
		tr = newTracer()
		setupSpan = tr.request("setup")
	}
	var gen, build time.Duration
	if w.name == "live-mixed" || traced {
		// live-mixed's server (and the traced run's write probe) opens a
		// durable data dir that a first boot seeded from the dataset;
		// seeding it is input preparation, and set-up is the reopen.
		var st *store.Store
		st, gen, build = generate(setupSpan)
		dataDir = filepath.Join(runDir, "data")
		if err := seedDataDir(dataDir, st); err != nil {
			return err
		}
	}
	e, setupTimes, err := bootRepeated(w, dataDir, hc, repeats, setupSpan)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	if e.phases.generate == 0 {
		// live-mixed loads its dataset instead of generating it; the
		// traced run reports the generation of its input file.
		e.phases.generate, e.phases.storeBuild = gen, build
	}

	stamp, err := json.Marshal(newStamp(w, seed, e.st.NumTriples()))
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", stamp)

	counts, err := oracleCounts(e.st)
	if err != nil {
		return fmt.Errorf("oracle cross-check: %w", err)
	}
	wrong := -1
	if selftest {
		wrong = 14 // every q14 read must then fail
	}
	var p *pools
	if w.name == "point-distinct" || w.name == "live-mixed" {
		p = collectPools(e.st)
	}
	var s *stream
	switch w.name {
	case "point-distinct":
		s = distinctStream(e.front.url, newDistinctTexts(p, seed))
	case "live-mixed":
		s = tableStream(e.front.url, counts, seed, 1, wrong)
		s.patch = livePatches(p, seed)
	default:
		s = tableStream(e.front.url, counts, seed, clients, wrong)
	}

	// Warm up: one pass of the 12 queries (or 12 texts) per reader, so
	// lazily built indexes and cached plans are in place, then warmup of
	// the stream itself, so the heap and the GC pacer have settled before
	// the window. Both are checked but not timed.
	rep := &report{}
	rep.addReads(closedLoop(hc, s, time.Minute, len(tableQueries()), nil))
	rep.addReads(closedLoop(hc, s, warmup, 0, nil))

	if traced {
		setupSpan.end()
		if err := runTraced(tr, rep, w, e, s, hc, window, dataDir, counts, seed, outDir); err != nil {
			return err
		}
	} else {
		runMeasured(rep, e, s, hc, window, setupTimes)
	}

	// Checks that need the whole run.
	if s.distinct != nil {
		n := int(s.issued.Load())
		f, why, err := checkDistinct(e, s.distinct, rep.deferred, selftest)
		if err != nil {
			return err
		}
		rep.fail(f, why)
		rep.add("distinct.texts", float64(n), "count", 0, fmt.Sprintf("%d of them repeat an earlier text", s.distinct.repeats(n)))
	}
	if s.patch != nil {
		a, f, why, err := checkFinal(hc, e)
		if err != nil {
			return err
		}
		rep.attempted += a
		rep.fail(f, why)
	}
	return rep.print(traced, selftest)
}

// addReads folds a closed-loop run's operations into the report.
func (r *report) addReads(res loopResult) {
	r.attempted += res.attempts
	r.fail(res.failed, res.firstErr)
	r.deferred = append(r.deferred, res.deferred...)
}

// runMeasured is the untraced run: the workload's window, then the
// end-to-end metrics.
func runMeasured(rep *report, e *env, s *stream, hc *http.Client, window time.Duration, setupTimes []float64) {
	var wl writeLog
	var wg sync.WaitGroup
	if s.patch != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wl = openLoopWriter(hc, e.front.url, liveRate, window, s.patch)
		}()
	}
	res := closedLoop(hc, s, window, 0, nil)
	wg.Wait()
	rep.addReads(res)
	if s.patch != nil {
		// Let an in-flight compaction finish and stop the compactor, so the
		// heap is not read while two bases are live.
		e.srv.Close()
	}
	heap := liveHeapMB()

	rep.add("setup_s", median(setupTimes), "s", len(setupTimes), "median of the run's set-ups")
	rep.add("query_qps", res.qps(), "1/s", len(res.lat), fmt.Sprintf("over %.2fs", res.elapsed.Seconds()))
	rep.latency("query", res.lat)
	rep.add("heap_live_mb", heap, "MB", 0, "live heap after a forced GC at the end of the window")
	if s.patch != nil {
		rep.attempted += wl.attempts
		rep.fail(wl.failed, wl.firstErr)
		rep.latency("update", wl.lat)
		rep.add("update_sched_lag_ms", float64(wl.maxLag)/1e6, "ms", wl.attempts, "furthest the open-loop writer fell behind")
	}
}

// liveHeapMB is the live Go heap after forced collections. The second
// one frees what the first only moved to sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// print writes every metric as a report line, then the result line: the
// JSON object with the metrics BENCHMARK.json lists for this mode.
func (r *report) print(traced, selftest bool) error {
	r.add("error_rate", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.attempted,
		fmt.Sprintf("%d failed of %d attempted", r.failed, r.attempted))
	byName := map[string]metric{}
	for _, m := range r.metrics {
		byName[m.name] = m
		line := fmt.Sprintf("%-30s %14.6g %-6s", m.name, m.value, m.unit)
		if m.samples > 0 {
			line += fmt.Sprintf(" n=%d", m.samples)
		}
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	for _, why := range r.errs {
		fmt.Println("FAILED:", why)
	}
	names, err := benchmarkMetrics(traced)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return fmt.Errorf("metric %s listed in BENCHMARK.json was not measured", n)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.value)
		}
		out.Metrics[n] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if selftest {
		if r.failed == 0 {
			return fmt.Errorf("selftest: the wrong expected count went unreported")
		}
		fmt.Printf("selftest: the wrong expected count was reported (%d failed operations)\n", r.failed)
	}
	fmt.Println(string(b))
	return nil
}

// benchmarkMetrics reads the metric names BENCHMARK.json lists for the
// mode, so the result line and the benchmark definition cannot drift apart.
func benchmarkMetrics(traced bool) ([]string, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := def.EndToEnd
	if traced {
		list = def.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	return names, nil
}

package main

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/lubm"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wal"
)

// scale is the LUBM scale of every workload (about 434k triples).
const scale = 4

// compactEvery is live-mixed's background compaction interval.
const compactEvery = 2 * time.Second

// quietLog discards server log records so they do not mix with the report.
var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// datasetSeed is the LUBM generator seed: the canonical LUBM(4) that
// rdfserved -lubm 4 and the test suite generate (438,622 triples). The
// workload seed drives every stream instead of the generator, because the
// generator's seed changes the dataset's size by up to 10% (416k to 501k
// triples over seeds 0-9), which would spread every end-to-end metric
// across seeds by more than the noise the benchmark must resolve.
const datasetSeed = 0

// step runs fn and returns its duration; when parent is non-nil (the
// traced run) the call is also recorded as a child span named name.
func step(parent *open, name string, fn func()) time.Duration {
	if parent != nil {
		return parent.timed(name, fn)
	}
	t := time.Now()
	fn()
	return time.Since(t)
}

// generate builds the LUBM store, timing the generator and the store build
// separately.
func generate(parent *open) (st *store.Store, gen, build time.Duration) {
	b := store.NewBuilder()
	gen = step(parent, "lubm.GenerateTo", func() {
		lubm.GenerateTo(lubm.Config{Universities: scale, Seed: datasetSeed}, b.Add)
	})
	build = step(parent, "store.Builder.Build", func() { st = b.Build() })
	return st, gen, build
}

// listener is one server.Server handler on a loopback port.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

// close stops the listener and waits for its serve loop to return.
func (l *listener) close() {
	l.hs.Close()
	<-l.done
}

// waitHealthy polls base/healthz until it answers 200.
func waitHealthy(hc *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready after 30s (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// env is one booted workload: the server clients talk to and whatever
// stands behind it.
type env struct {
	st      *store.Store   // the base dataset
	srv     *server.Server // the server behind front
	front   *listener
	handler *spanHandler // front's handler; records spans in the traced run

	ds *repro.Dataset // durable store (live-mixed)

	workers []*server.Server // cluster-loopback
	wlisten []*listener
	coord   *cluster.Coordinator
	// clusterStart is when the first worker began booting; cluster
	// readiness runs from it to the coordinator front's first healthy
	// answer.
	clusterStart time.Time

	setupDur time.Duration
	phases   setupPhases
}

// setupPhases times the steps of one set-up (zero when a step is absent).
type setupPhases struct {
	generate, storeBuild, indexBuild, durableOpen, clusterReady time.Duration
}

func (e *env) close() {
	if e.front != nil {
		e.front.close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	for i, l := range e.wlisten {
		l.close()
		e.workers[i].Close()
	}
	if e.coord != nil {
		e.coord.Close()
	}
	if e.ds != nil {
		if err := e.ds.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: closing durable store: %v\n", err)
		}
	}
}

// boot sets up workload w from process start to first servable request:
// the time covers generating (or loading) the dataset, building the store,
// server.New, durable open and cluster boot where the workload has them,
// and the first 200 from the front's /healthz. parent, when non-nil,
// receives the steps as spans.
func boot(w *workload, dataDir string, hc *http.Client, parent *open) (*env, error) {
	e := &env{}
	start := time.Now()
	var err error
	switch w.name {
	case "live-mixed":
		err = e.bootDurable(dataDir, parent)
	case "cluster-loopback":
		err = e.bootCluster(hc, parent)
	default:
		err = e.bootMemory(w.engine, parent)
	}
	if err == nil {
		err = e.serveFront(hc)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	e.setupDur = time.Since(start)
	if !e.clusterStart.IsZero() {
		e.phases.clusterReady = time.Since(e.clusterStart)
	}
	return e, nil
}

// serveFront puts e.srv on a loopback listener and waits until it is
// healthy.
func (e *env) serveFront(hc *http.Client) error {
	e.handler = &spanHandler{h: e.srv.Handler()}
	var err error
	if e.front, err = listen(e.handler); err != nil {
		return err
	}
	return waitHealthy(hc, e.front.url)
}

// newServer is server.New timed as the index-build step: it builds the
// default engine's inner instance.
func (e *env) newServer(cfg server.Config, parent *open) error {
	cfg.Logger = quietLog
	var err error
	e.phases.indexBuild = step(parent, "server.New", func() { e.srv, err = server.New(cfg) })
	return err
}

func (e *env) bootMemory(engineName string, parent *open) error {
	e.st, e.phases.generate, e.phases.storeBuild = generate(parent)
	return e.newServer(server.Config{Store: e.st, DefaultEngine: engineName}, parent)
}

// seedDataDir initializes a durable data dir from st, as a server's first
// boot with -data does: it writes the base segment and an empty WAL. This
// is input preparation; the timed set-ups reopen the dir.
func seedDataDir(dir string, st *store.Store) error {
	pol, err := wal.ParsePolicy("always")
	if err != nil {
		return err
	}
	d, err := durable.Open(dir, func() (*store.Store, error) { return st, nil }, durable.Options{Fsync: pol})
	if err != nil {
		return fmt.Errorf("seeding data dir: %w", err)
	}
	return d.Close()
}

// openDurable reopens the seeded data dir with the rdfserved defaults
// (WAL fsync always): map the segment, replay the log.
func openDurable(dataDir string, parent *open) (ds *repro.Dataset, took time.Duration, err error) {
	took = step(parent, "repro.OpenDataset", func() {
		ds, err = repro.OpenDataset("", repro.WithDataDir(dataDir), repro.WithFsync("always"))
	})
	if err != nil {
		return nil, 0, fmt.Errorf("opening durable data dir: %w", err)
	}
	return ds, took, nil
}

func (e *env) bootDurable(dataDir string, parent *open) error {
	ds, took, err := openDurable(dataDir, parent)
	if err != nil {
		return err
	}
	e.ds, e.st, e.phases.durableOpen = ds, ds.Store(), took
	return e.newServer(server.Config{Live: ds.Live(), Durable: ds.Durable(), CompactEvery: compactEvery}, parent)
}

// clusterShards is cluster-loopback's subject-hash shard count; it also
// has as many workers.
const clusterShards = 2

func (e *env) bootCluster(hc *http.Client, parent *open) error {
	e.st, e.phases.generate, e.phases.storeBuild = generate(parent)
	return e.startCluster(hc, parent)
}

// startCluster boots clusterShards workers over e.st and a coordinator
// server in front of them.
func (e *env) startCluster(hc *http.Client, parent *open) error {
	e.clusterStart = time.Now()
	var urls []string
	for i := 0; i < clusterShards; i++ {
		var w *server.Server
		var err error
		step(parent, "server.New worker", func() {
			w, err = server.New(server.Config{Store: e.st, Shards: clusterShards, Logger: quietLog})
		})
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
		l, err := listen(w.Handler())
		if err != nil {
			w.Close()
			return err
		}
		e.workers = append(e.workers, w)
		e.wlisten = append(e.wlisten, l)
		urls = append(urls, l.url)
	}
	for _, u := range urls {
		if err := waitHealthy(hc, u); err != nil {
			return err
		}
	}
	coord, err := cluster.New(cluster.Config{Workers: urls, Shards: clusterShards, Logger: quietLog})
	if err != nil {
		return err
	}
	coord.Start()
	e.coord = coord
	return e.newServer(server.Config{Store: e.st, Shards: clusterShards, Cluster: coord}, parent)
}

// setupRepeats is how many times an end-to-end run sets its workload up;
// setup_s is the median, and the last set-up serves the measured window.
const setupRepeats = 5

// bootRepeated sets the workload up n times and keeps the last.
func bootRepeated(w *workload, dataDir string, hc *http.Client, n int, parent *open) (*env, []float64, error) {
	var times []float64
	var e *env
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC() // do not bill the previous set-up's garbage to this one
		var err error
		if e, err = boot(w, dataDir, hc, parent); err != nil {
			return nil, nil, err
		}
		times = append(times, e.setupDur.Seconds())
	}
	return e, times, nil
}

// spanHandler forwards to h; while tr is set it records a server.handler
// span per request, parented to the client span named in spanHeader.
type spanHandler struct {
	h  http.Handler
	tr atomic.Pointer[tracer] // set only while the traced loop runs
}

func (s *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := s.tr.Load()
	if tr == nil {
		s.h.ServeHTTP(w, r)
		return
	}
	var parent, req uint64
	fmt.Sscanf(r.Header.Get(spanHeader), "%d.%d", &parent, &req)
	sp := tr.begin("server.handler", parent, req)
	s.h.ServeHTTP(w, r)
	sp.end()
}

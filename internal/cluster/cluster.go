// Package cluster promotes the in-process scatter-gather of internal/shard
// to a cross-process cluster: a coordinator plugs into the shard engine's
// RemoteOpener seam and serves every per-shard sub-query by streaming
// framed row batches from worker rdfserved processes over HTTP.
//
// Failure is the design input. Every drain runs under a retry budget with
// capped exponential backoff and jitter, resuming exactly where the broken
// stream stopped (workers skip already-delivered rows, so retried drains
// deliver each row exactly once). Worker selection is health-gated: an
// active /healthz probe loop and per-worker circuit breakers classify
// workers up/degraded/down, an open breaker re-admits one half-open probe
// after a cooldown. Straggling first bytes are hedged against a replica
// candidate at a p99-derived delay — first stream wins, the loser is
// cancelled. When a shard stays unreachable past the budget, the drain
// degrades gracefully: single-pattern groups are reassembled from the
// object-side replicas the partitioner placed on the surviving shards, and
// anything else is reported through the Partial sink so the server flags
// the response rather than failing it.
//
// # Topology
//
// Workers are symmetric rdfserved processes that each load the dataset and
// partition it with the same deterministic code (same subject-hash, same
// dictionary assignment), so a row's uint32 terms mean the same thing on
// every process. The coordinator assigns shard K to Replicas candidate
// workers (K mod W, K+1 mod W, ...) — the first is the primary, the rest
// serve failover and hedging.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/shard"
)

// Config parameterizes New.
type Config struct {
	// Workers are the worker base URLs ("http://host:port"), in shard
	// assignment order.
	Workers []string
	// Shards is the partition's shard count (must match every worker's
	// -shards; workers reject mismatched requests).
	Shards int
	// Replicas is how many candidate workers serve each shard (primary +
	// failover targets). Defaults to min(2, len(Workers)).
	Replicas int
	// Policy tunes retries, hedging, breakers, and probing; zero fields
	// take DefaultPolicy values.
	Policy Policy
	// Transport overrides the HTTP transport — the deterministic
	// fault-injection seam (see FaultPlan.Transport). Nil uses a pooled
	// default.
	Transport http.RoundTripper
	// Logger receives health transitions and degradation events. Nil
	// discards.
	Logger *slog.Logger
	// DisableProbes turns the active health loop off; breakers are then
	// driven by request outcomes alone. Tests use it to keep runs
	// deterministic.
	DisableProbes bool
	// DisableReplicaRecovery turns the object-replica degradation rung off:
	// an unreachable shard goes straight to the partial flag.
	DisableReplicaRecovery bool
	// Now and Rand inject the clock and randomness (tests); nil means
	// time.Now and math/rand.
	Now  func() time.Time
	Rand func() float64
}

// Coordinator fans per-shard sub-queries out to the worker fleet. Safe for
// concurrent use; one instance serves every engine and every epoch (it
// holds no partition state — the shard planner above the seam does).
type Coordinator struct {
	cfg     Config
	policy  Policy
	client  *http.Client
	workers []*worker
	log     *slog.Logger
	now     func() time.Time

	randMu sync.Mutex
	rand   func() float64

	// firstRow distributes attempt time-to-first-byte — the hedge trigger's
	// p99 source and a /metrics histogram.
	firstRow *obs.Hist

	met clusterMetrics

	stopProbes chan struct{}
	probesDone chan struct{}
	started    atomic.Bool
}

// worker is one remote rdfserved process and its health state.
type worker struct {
	addr string // base URL, no trailing slash
	br   *Breaker

	probes     atomic.Uint64
	probeFails atomic.Uint64
	drains     atomic.Uint64

	mu      sync.Mutex
	lastErr string
}

func (w *worker) noteErr(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err == nil {
		w.lastErr = ""
	} else {
		w.lastErr = err.Error()
	}
}

// state derives the worker's health classification from its breaker.
func (w *worker) state() string {
	switch w.br.State() {
	case BreakerClosed:
		if w.br.Fails() > 0 {
			return "degraded"
		}
		return "up"
	default:
		return "down"
	}
}

// clusterMetrics are the coordinator's robustness counters.
type clusterMetrics struct {
	attempts          atomic.Uint64
	retries           atomic.Uint64
	hedges            atomic.Uint64
	hedgeWins         atomic.Uint64
	failovers         atomic.Uint64
	replicaRecoveries atomic.Uint64
	partials          atomic.Uint64
	probes            atomic.Uint64
	probeFails        atomic.Uint64
}

// New validates cfg and builds the coordinator. Call Start to begin health
// probing and Close on shutdown.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: shards must be >= 1 (got %d)", cfg.Shards)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(cfg.Workers) {
		cfg.Replicas = len(cfg.Workers)
	}
	pol := cfg.Policy.withDefaults()
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	rnd := cfg.Rand
	if rnd == nil {
		rnd = rand.Float64
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	c := &Coordinator{
		cfg:        cfg,
		policy:     pol,
		client:     &http.Client{Transport: transport},
		log:        log,
		now:        now,
		rand:       rnd,
		firstRow:   obs.NewHist(obs.LatencyBuckets()),
		stopProbes: make(chan struct{}),
		probesDone: make(chan struct{}),
	}
	for _, addr := range cfg.Workers {
		c.workers = append(c.workers, &worker{
			addr: strings.TrimRight(addr, "/"),
			br:   NewBreaker(pol, now),
		})
	}
	return c, nil
}

// Start launches the health probe loop (a no-op when probes are disabled
// or Start already ran).
func (c *Coordinator) Start() {
	if c.cfg.DisableProbes || !c.started.CompareAndSwap(false, true) {
		close(c.probesDone)
		return
	}
	go c.probeLoop()
}

// Close stops the probe loop and the transport's idle connections.
func (c *Coordinator) Close() {
	if c.started.CompareAndSwap(true, false) {
		close(c.stopProbes)
		<-c.probesDone
	}
	c.client.CloseIdleConnections()
}

// jitter returns a uniform [0,1) sample under the lock math/rand's global
// source does not need but injected test sources might.
func (c *Coordinator) jitter() float64 {
	c.randMu.Lock()
	defer c.randMu.Unlock()
	return c.rand()
}

// hedgeDelay is the current p99-derived hedge trigger.
func (c *Coordinator) hedgeDelay() time.Duration {
	return c.policy.HedgeDelay(c.firstRow.Snapshot().QuantileDuration(0.99))
}

// candidates returns shard sh's candidate workers, primary first.
func (c *Coordinator) candidates(sh int) []*worker {
	w := len(c.workers)
	n := c.cfg.Replicas
	if n > w {
		n = w
	}
	out := make([]*worker, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, c.workers[(sh+i)%w])
	}
	return out
}

// Opener returns the shard.RemoteOpener that fans engineName's sub-queries
// out to the fleet. Install it on a shard engine via SetRemote.
func (c *Coordinator) Opener(engineName string) shard.RemoteOpener {
	return &opener{c: c, engine: engineName}
}

type opener struct {
	c      *Coordinator
	engine string
}

// OpenShard builds the robust drain cursor for one shard's sub-query.
// Establishment is lazy (first Next), so the open itself never blocks on
// the network and every failure flows through the cursor — exactly the
// contract the merge layer's drains already handle.
func (o *opener) OpenShard(ctx context.Context, sh int, sub *query.BGP, text string, h shard.RemoteHints) (engine.Cursor, error) {
	return newRemoteDrain(ctx, o.c, drainReq{
		shard:         sh,
		text:          text,
		vars:          append([]string(nil), sub.Select...),
		engine:        o.engine,
		owner:         h.Owner,
		rootIdx:       h.RootIdx,
		cap:           h.Cap,
		singlePattern: h.SinglePattern,
		numShards:     o.c.cfg.Shards,
	}), nil
}

// WorkerHealth is one worker's health snapshot for /stats and /metrics.
type WorkerHealth struct {
	Addr             string `json:"addr"`
	State            string `json:"state"`
	Breaker          string `json:"breaker"`
	ConsecutiveFails int    `json:"consecutive_fails"`
	Probes           uint64 `json:"probes"`
	ProbeFailures    uint64 `json:"probe_failures"`
	Drains           uint64 `json:"drains"`
	LastError        string `json:"last_error,omitempty"`
}

// Stats is the cluster section of the server's /stats.
type Stats struct {
	Workers           []WorkerHealth `json:"workers"`
	Shards            int            `json:"shards"`
	Replicas          int            `json:"replicas"`
	Attempts          uint64         `json:"attempts"`
	Retries           uint64         `json:"retries"`
	Hedges            uint64         `json:"hedges"`
	HedgeWins         uint64         `json:"hedge_wins"`
	Failovers         uint64         `json:"failovers"`
	ReplicaRecoveries uint64         `json:"replica_recoveries"`
	PartialResults    uint64         `json:"partial_results"`
	Probes            uint64         `json:"probes"`
	ProbeFailures     uint64         `json:"probe_failures"`
	FirstRowP50Ms     float64        `json:"first_row_p50_ms"`
	FirstRowP99Ms     float64        `json:"first_row_p99_ms"`
	HedgeDelayMs      float64        `json:"hedge_delay_ms"`
}

// Stats snapshots the coordinator's counters and per-worker health.
func (c *Coordinator) Stats() Stats {
	snap := c.firstRow.Snapshot()
	st := Stats{
		Shards:            c.cfg.Shards,
		Replicas:          c.cfg.Replicas,
		Attempts:          c.met.attempts.Load(),
		Retries:           c.met.retries.Load(),
		Hedges:            c.met.hedges.Load(),
		HedgeWins:         c.met.hedgeWins.Load(),
		Failovers:         c.met.failovers.Load(),
		ReplicaRecoveries: c.met.replicaRecoveries.Load(),
		PartialResults:    c.met.partials.Load(),
		Probes:            c.met.probes.Load(),
		ProbeFailures:     c.met.probeFails.Load(),
		FirstRowP50Ms:     snap.Quantile(0.5) * 1e3,
		FirstRowP99Ms:     snap.Quantile(0.99) * 1e3,
		HedgeDelayMs:      float64(c.hedgeDelay()) / 1e6,
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerHealth{
			Addr:             w.addr,
			State:            w.state(),
			Breaker:          w.br.State().String(),
			ConsecutiveFails: w.br.Fails(),
			Probes:           w.probes.Load(),
			ProbeFailures:    w.probeFails.Load(),
			Drains:           w.drains.Load(),
			LastError:        func() string { w.mu.Lock(); defer w.mu.Unlock(); return w.lastErr }(),
		})
	}
	return st
}

// FirstRowHist exposes the attempt time-to-first-byte histogram for
// /metrics.
func (c *Coordinator) FirstRowHist() obs.HistSnapshot { return c.firstRow.Snapshot() }

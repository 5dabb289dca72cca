package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/lubm"
	"repro/internal/query"
)

// workload is one traffic mix against one server topology; README.md
// says why each was chosen.
type workload struct {
	name   string
	engine string // the front server's default engine
}

var workloads = []*workload{
	{"lubm-table2", "emptyheaded"},
	{"point-distinct", "auto"},
	{"live-mixed", "emptyheaded"},
	{"cluster-loopback", "emptyheaded"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// liveRate is live-mixed's open-loop patch rate per second.
const liveRate = 100

// stream is a workload's read traffic plus the checks that run after it.
type stream struct {
	readers int
	next    func(c, k int) readReq
	// distinct is point-distinct's text generator (nil elsewhere) and
	// issued counts the texts handed out.
	distinct *distinctTexts
	issued   *atomic.Int64
	// patch is live-mixed's writer stream (nil elsewhere).
	patch func(k int) (body string, ins, del int)
}

// tableStream cycles the 12 Table II queries: each reader sends all 12 in
// every cycle, in a fresh seeded order per cycle, so which queries overlap
// across readers averages out over a run instead of being fixed by the
// seed. wrong, when >= 0, corrupts that query's expected count (the
// checker's self-test).
func tableStream(base string, counts map[int]int, seed int64, readers int, wrong int) *stream {
	qs := tableQueries()
	nq := len(lubm.QueryNumbers)
	urls := make([]string, nq)
	want := make([]int, nq)
	for i, n := range lubm.QueryNumbers {
		urls[i] = queryURL(base, qs[n], "")
		want[i] = counts[n]
		if n == wrong {
			want[i]++
		}
	}
	// Reader c's order lives in orders[c]; only reader c touches it.
	orders := make([][]int, readers)
	rngs := make([]*rand.Rand, readers)
	for c := range orders {
		orders[c] = make([]int, nq)
		rngs[c] = rand.New(rand.NewSource(seed*1000 + int64(c)))
	}
	return &stream{readers: readers, next: func(c, k int) readReq {
		if k%nq == 0 {
			orders[c] = rngs[c].Perm(nq)
		}
		i := orders[c][k%nq]
		return readReq{url: urls[i], expected: want[i], key: lubm.QueryNumbers[i]}
	}}
}

// distinctStream hands out point-distinct's texts in order across all
// readers: each request takes the next text of one shared sequence.
func distinctStream(base string, g *distinctTexts) *stream {
	issued := new(atomic.Int64)
	return &stream{readers: clients, distinct: g, issued: issued, next: func(c, k int) readReq {
		i := int(issued.Add(1) - 1)
		return readReq{url: queryURL(base, g.text(i), ""), expected: -1, key: i}
	}}
}

// livePatches is live-mixed's writer stream. Patch k inserts a
// ub:takesCourse edge (a predicate q7 and q9 read) and a
// ub:doctoralDegreeFrom edge (read by no query) for a fresh, untyped
// visitor, and deletes patch k-1's two inserts. Untyped subjects match no
// Table II query, so the oracle's counts hold throughout the run while
// every read still merges the pending delta.
func livePatches(p *pools, seed int64) func(k int) (string, int, int) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var prev []string // the previous patch's inserted triples
	return func(k int) (string, int, int) {
		visitor := fmt.Sprintf("<http://www.Department0.University0.edu/Visitor%d>", k)
		ins := []string{
			fmt.Sprintf("%s <%s> %s .", visitor, lubm.PropTakesCourse, p.courses[rng.Intn(len(p.courses))]),
			fmt.Sprintf("%s <%s> %s .", visitor, lubm.PropDoctoralDegreeFrom, p.univs[rng.Intn(len(p.univs))]),
		}
		var b strings.Builder
		for _, t := range prev {
			b.WriteString("-" + t + "\n")
		}
		for _, t := range ins {
			b.WriteString("+" + t + "\n")
		}
		del := len(prev)
		prev = ins
		return b.String(), len(ins), del
	}
}

// checkDistinct checks every point-distinct answer's row count against
// the oracle engine, after the window closed; a repeated text is
// evaluated once. wrong, when true, corrupts the first expected count (the
// checker's self-test).
func checkDistinct(e *env, g *distinctTexts, reads []deferredCheck, wrong bool) (failed int, firstErr string, err error) {
	oe, err := engines.New(oracleEngine, e.st)
	if err != nil {
		return 0, "", err
	}
	// Evaluate each distinct text once, on as many goroutines as clients.
	// Texts naming missing constants key as -1-i: they never repeat.
	keyOf := func(i int) int {
		if k := g.pickOf(i); k >= 0 {
			return k
		}
		return -1 - i
	}
	want := make(map[int]int)
	var todo []int
	for _, r := range reads {
		if _, ok := want[keyOf(r.key)]; !ok {
			want[keyOf(r.key)] = 0
			todo = append(todo, r.key)
		}
	}
	counts := make([]int, len(todo))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; j < len(todo); j += clients {
				rows, err := runQuery(oe, g.text(todo[j]))
				if err != nil {
					errs[c] = fmt.Errorf("oracle on text %d: %w", todo[j], err)
					return
				}
				counts[j] = len(rows)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, "", err
		}
	}
	for j, i := range todo {
		want[keyOf(i)] = counts[j]
	}
	for _, r := range reads {
		w := want[keyOf(r.key)]
		if wrong && r.key == 0 {
			w++
		}
		if r.rows != w {
			failed++
			if firstErr == "" {
				firstErr = fmt.Sprintf("text %d: %d rows, oracle says %d", r.key, r.rows, w)
			}
		}
	}
	return failed, firstErr, nil
}

// checkFinal compares each Table II query's answer through the server with
// the naive engine over the live store's final overlay, row for row.
func checkFinal(hc *http.Client, e *env) (attempted, failed int, firstErr string, err error) {
	ne, err := engines.NewLive("naive", e.srv.Live())
	if err != nil {
		return 0, 0, "", err
	}
	d := e.srv.Live().Dict()
	for n, text := range tableQueries() {
		attempted++
		q, err := query.ParseSPARQL(text)
		if err != nil {
			return 0, 0, "", err
		}
		res, err := engine.Collect(ne.Open(q, engine.ExecOpts{}))
		if err != nil {
			return 0, 0, "", fmt.Errorf("naive q%d: %w", n, err)
		}
		got, err := fetchRows(hc, queryURL(e.front.url, text, ""))
		if err == nil && !slices.Equal(got, rowKeys(d, res.Rows)) {
			err = fmt.Errorf("q%d: server returned %d rows, naive over the final overlay %d, or the rows differ", n, len(got), len(res.Rows))
		}
		if err != nil {
			failed++
			if firstErr == "" {
				firstErr = err.Error()
			}
		}
	}
	return attempted, failed, firstErr, nil
}

package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/query"
)

// heapPerCall runs call warm times, then n more times, and returns the live
// heap the n calls grew by, per call.
func heapPerCall(warm, n int, call func(i int)) float64 {
	for i := 0; i < warm; i++ {
		call(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+n; i++ {
		call(i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
}

// serve runs one request through the handler in process.
func serve(t *testing.T, h http.Handler, req *http.Request) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d, body %s", req.Method, req.URL, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// shardQuery builds a worker drain request for shard 0 of a 2-shard server.
func shardQuery(text string) *http.Request {
	form := url.Values{"query": {text}, "shards": {"2"}, "shard": {"0"}, "engine": {"emptyheaded"}}
	req := httptest.NewRequest(http.MethodPost, "/shard/query", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	return req
}

// TestAutoDistinctQueriesHeapBounded: a stream of distinct constant-subject
// queries on ?engine=auto must not grow the heap once the plan cache is
// full — the routing decision lives in the bounded cache, not in a memo on
// the engine.
func TestAutoDistinctQueriesHeapBounded(t *testing.T) {
	srv, err := New(Config{Store: smallStore()})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	perQuery := heapPerCall(1000, 8000, func(i int) {
		text := fmt.Sprintf(`SELECT ?o WHERE { <http://ex/s%d> <http://ex/knows> ?o }`, i)
		serve(t, h, httptest.NewRequest(http.MethodGet, queryURL("", text, map[string]string{"engine": "auto"}), nil))
	})
	t.Logf("%.1f bytes per query", perQuery)
	if perQuery > 128 {
		t.Fatalf("heap grew %.0f bytes per distinct auto query past a full plan cache, want bounded", perQuery)
	}
	runtime.KeepAlive(srv)
}

// TestShardQueryDistinctTextsHeapBounded: a worker receiving more distinct
// sub-query texts than any intern table would hold keeps a bounded heap.
func TestShardQueryDistinctTextsHeapBounded(t *testing.T) {
	srv, err := New(Config{Store: smallStore(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	perText := heapPerCall(1000, 4500, func(i int) {
		serve(t, h, shardQuery(fmt.Sprintf(`SELECT ?o WHERE { <http://ex/s%d> <http://ex/knows> ?o }`, i)))
	})
	t.Logf("%.1f bytes per text", perText)
	if perText > 128 {
		t.Fatalf("heap grew %.0f bytes per distinct sub-query text past a full plan cache, want bounded", perText)
	}
	runtime.KeepAlive(srv)
}

// TestSeparateParsesShareOneEntry: the plan cache is keyed by normalized
// text, so two separate parses of the same query — through /query, through
// live.Engine.Open, and through a worker's /shard/query — each resolve to
// one entry.
func TestSeparateParsesShareOneEntry(t *testing.T) {
	srv, err := New(Config{Store: smallStore(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	text := `SELECT ?who WHERE { ?x <http://ex/knows> ?who }`
	cache := srv.Live().PlanCache()
	expect := func(via string, hits, misses uint64) {
		t.Helper()
		if st := cache.Stats(); st.Hits != hits || st.Misses != misses {
			t.Fatalf("after %s: hits=%d misses=%d, want %d/%d", via, st.Hits, st.Misses, hits, misses)
		}
	}

	for range 2 {
		serve(t, h, httptest.NewRequest(http.MethodGet, queryURL("", text, nil), nil))
	}
	expect("/query twice", 1, 1)

	le, err := engines.NewLive("emptyheaded", srv.Live())
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		res, err := engine.Collect(le.Open(query.MustParseSPARQL(text), engine.ExecOpts{}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 2 || res.Vars[0] != "who" {
			t.Fatalf("live.Engine.Open: vars %v, %d rows, want [who] and 2 rows", res.Vars, res.Len())
		}
	}
	expect("live.Engine.Open twice", 3, 1)

	for range 2 {
		serve(t, h, shardQuery(text))
	}
	expect("/shard/query twice", 4, 2)
}

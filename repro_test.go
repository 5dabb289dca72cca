package repro_test

import (
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro"
)

const apiTestData = `
<http://ex/a> <http://ex/p> <http://ex/b> .
<http://ex/b> <http://ex/p> <http://ex/c> .
<http://ex/a> <http://ex/name> "A" .
`

func TestLoadNTriplesAndQuery(t *testing.T) {
	ds, err := repro.LoadNTriples(strings.NewReader(apiTestData))
	if err != nil {
		t.Fatalf("LoadNTriples: %v", err)
	}
	if ds.NumTriples() != 3 {
		t.Fatalf("NumTriples = %d", ds.NumTriples())
	}
	if ds.NumTerms() == 0 {
		t.Fatalf("NumTerms = 0")
	}
	eh := repro.NewEmptyHeaded(ds, repro.AllOptimizations)
	rows, err := repro.Query(eh, ds, `SELECT ?x ?y WHERE { ?x <http://ex/p> ?y . }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(rows.Records) != 2 || len(rows.Vars) != 2 {
		t.Errorf("rows = %+v", rows)
	}
}

func TestLoadNTriplesError(t *testing.T) {
	if _, err := repro.LoadNTriples(strings.NewReader("garbage line\n")); err == nil {
		t.Errorf("bad N-Triples accepted")
	}
}

func TestQueryParseError(t *testing.T) {
	ds := repro.LoadTriples(nil)
	eh := repro.NewEmptyHeaded(ds, repro.AllOptimizations)
	if _, err := repro.Query(eh, ds, "not sparql"); err == nil {
		t.Errorf("bad SPARQL accepted")
	}
}

func TestAllEngineConstructors(t *testing.T) {
	ds, err := repro.LoadNTriples(strings.NewReader(apiTestData))
	if err != nil {
		t.Fatalf("LoadNTriples: %v", err)
	}
	engines := []repro.Engine{
		repro.NewEmptyHeaded(ds, repro.NoOptimizations),
		repro.NewLogicBlox(ds),
		repro.NewMonetDB(ds),
		repro.NewRDF3X(ds),
		repro.NewTripleBit(ds),
		repro.NewNaive(ds),
	}
	seen := map[string]bool{}
	for _, e := range engines {
		if e.Name() == "" || seen[e.Name()] {
			t.Errorf("engine name %q empty or duplicated", e.Name())
		}
		seen[e.Name()] = true
		rows, err := repro.Query(e, ds, `SELECT ?x WHERE { ?x <http://ex/p> <http://ex/b> . }`)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if len(rows.Records) != 1 || rows.Records[0][0].Value != "http://ex/a" {
			t.Errorf("%s: rows = %v", e.Name(), rows.Records)
		}
	}
}

func TestEnginesListMatchesTableII(t *testing.T) {
	ds := repro.GenerateLUBM(1, 0)
	engines := repro.Engines(ds)
	if len(engines) != 5 {
		t.Fatalf("Engines() = %d entries", len(engines))
	}
	want := []string{"emptyheaded", "triplebit", "rdf3x", "monetdb", "logicblox"}
	for i, e := range engines {
		if e.Name() != want[i] {
			t.Errorf("engine %d = %s, want %s", i, e.Name(), want[i])
		}
	}
}

func TestGenerateLUBMAndLUBMQueries(t *testing.T) {
	ds := repro.GenerateLUBM(1, 7)
	if ds.NumTriples() < 10000 {
		t.Fatalf("LUBM(1) only %d triples", ds.NumTriples())
	}
	if len(repro.LUBMQueryNumbers) != 12 {
		t.Errorf("LUBMQueryNumbers = %v", repro.LUBMQueryNumbers)
	}
	for _, n := range repro.LUBMQueryNumbers {
		if _, err := repro.Parse(repro.LUBMQuery(n, 1)); err != nil {
			t.Errorf("LUBM query %d does not parse: %v", n, err)
		}
	}
	if repro.MustParse(repro.LUBMQuery(2, 1)) == nil {
		t.Errorf("MustParse returned nil")
	}
}

// canon renders decoded rows sorted, for order-insensitive comparison.
func canon(r *repro.Rows) string {
	lines := make([]string, len(r.Records))
	for i, rec := range r.Records {
		parts := make([]string, len(rec))
		for j, term := range rec {
			parts[j] = term.String()
		}
		lines[i] = strings.Join(parts, "\t")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestPartitionedDatasetMatchesUnsharded(t *testing.T) {
	ds, err := repro.LoadNTriples(strings.NewReader(apiTestData))
	if err != nil {
		t.Fatalf("LoadNTriples: %v", err)
	}
	if ds.Shards() != 1 {
		t.Fatalf("fresh dataset Shards() = %d, want 1", ds.Shards())
	}
	const q = `SELECT ?x ?z WHERE { ?x <http://ex/p> ?y . ?y <http://ex/p> ?z . }`
	plain, err := repro.NewEngineByName(ds, "naive")
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.Query(plain, ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Partition(3); err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if ds.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", ds.Shards())
	}
	sharded, err := repro.NewEngineByName(ds, "naive")
	if err != nil {
		t.Fatal(err)
	}
	got, err := repro.Query(sharded, ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if canon(got) != canon(want) {
		t.Fatalf("sharded rows differ:\n%s\nwant:\n%s", canon(got), canon(want))
	}
	// Partition(1) reverts to unsharded construction.
	if err := ds.Partition(1); err != nil {
		t.Fatal(err)
	}
	if ds.Shards() != 1 {
		t.Fatalf("Shards() after Partition(1) = %d, want 1", ds.Shards())
	}
}

func TestQueryHonoursLimitOffset(t *testing.T) {
	ds, err := repro.LoadNTriples(strings.NewReader(apiTestData))
	if err != nil {
		t.Fatalf("LoadNTriples: %v", err)
	}
	eng := repro.NewNaive(ds)
	rows, err := repro.Query(eng, ds, `SELECT ?x ?y WHERE { ?x <http://ex/p> ?y . } LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Records) != 1 {
		t.Fatalf("LIMIT 1: %d rows, want 1", len(rows.Records))
	}
	rows, err = repro.Query(eng, ds, `SELECT ?x ?y WHERE { ?x <http://ex/p> ?y . } OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Records) != 1 {
		t.Fatalf("OFFSET 1: %d rows, want 1", len(rows.Records))
	}
	rows, err = repro.Query(eng, ds, `SELECT ?x ?y WHERE { ?x <http://ex/p> ?y . } LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Records) != 0 || len(rows.Vars) != 2 {
		t.Fatalf("LIMIT 0: %d rows / vars %v, want 0 rows with both vars", len(rows.Records), rows.Vars)
	}
}

func TestDatasetLiveUpdates(t *testing.T) {
	ds, err := repro.LoadNTriples(strings.NewReader(apiTestData))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngineByName(ds, "emptyheaded")
	if err != nil {
		t.Fatal(err)
	}
	const chain = `SELECT ?x ?y ?z WHERE { ?x <http://ex/p> ?y . ?y <http://ex/p> ?z }`
	rows, err := repro.Query(eng, ds, chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Records) != 1 {
		t.Fatalf("base chain rows = %d, want 1 (a→b→c)", len(rows.Records))
	}

	// Extend the chain live: the same engine sees the new edge.
	n, err := ds.ApplyPatch(strings.NewReader("+<http://ex/c> <http://ex/p> <http://ex/d> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n.Inserted != 1 {
		t.Fatalf("ApplyPatch: %+v", n)
	}
	if ds.NumTriples() != 4 {
		t.Fatalf("NumTriples after insert = %d, want 4", ds.NumTriples())
	}
	rows, err = repro.Query(eng, ds, chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Records) != 2 {
		t.Fatalf("chain rows after insert = %d, want 2 (a→b→c, b→c→d)", len(rows.Records))
	}

	// Compact: epoch bumps, same results from the same engine handle.
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	if ds.Epoch() != 1 {
		t.Fatalf("Epoch after compact = %d, want 1", ds.Epoch())
	}
	rows, err = repro.Query(eng, ds, chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Records) != 2 {
		t.Fatalf("chain rows after compact = %d, want 2", len(rows.Records))
	}

	// Delete a base edge; chains through it disappear.
	if _, err := ds.ApplyPatch(strings.NewReader("-<http://ex/a> <http://ex/p> <http://ex/b> .\n")); err != nil {
		t.Fatal(err)
	}
	rows, err = repro.Query(eng, ds, chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Records) != 1 {
		t.Fatalf("chain rows after delete = %d, want 1 (b→c→d)", len(rows.Records))
	}
}

// TestQueryRepeatedTextHeapBounded: repro.Query parses on every call, so
// repeating one text hands the engine a fresh query each time. Neither a
// raw engine nor a registry (live) engine may keep per-parse state.
func TestQueryRepeatedTextHeapBounded(t *testing.T) {
	ds := repro.GenerateLUBM(1, 0)
	text := repro.LUBMQuery(7, 1)
	live, err := repro.NewEngineByName(ds, "emptyheaded")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []repro.Engine{repro.NewEmptyHeaded(ds, repro.AllOptimizations), live} {
		query := func() {
			if _, err := repro.Query(e, ds, text); err != nil {
				t.Fatal(err)
			}
		}
		for range 100 {
			query()
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		const calls = 2000
		for range calls {
			query()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perCall := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / calls
		t.Logf("%T: %.1f bytes per call", e, perCall)
		if perCall > 128 {
			t.Fatalf("%T: heap grew %.0f bytes per repeated repro.Query call, want bounded", e, perCall)
		}
		runtime.KeepAlive(e)
	}
}

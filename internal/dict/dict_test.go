package dict

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func TestEncodeDense(t *testing.T) {
	d := New()
	a := d.Encode(rdf.NewIRI("http://a"))
	b := d.Encode(rdf.NewIRI("http://b"))
	c := d.Encode(rdf.NewLiteral("c"))
	if a != 0 || b != 1 || c != 2 {
		t.Errorf("ids not dense: %d %d %d", a, b, c)
	}
	if d.Size() != 3 {
		t.Errorf("Size = %d, want 3", d.Size())
	}
}

func TestEncodeIdempotent(t *testing.T) {
	d := New()
	term := rdf.NewIRI("http://x")
	first := d.Encode(term)
	for i := 0; i < 5; i++ {
		if got := d.Encode(term); got != first {
			t.Fatalf("Encode not stable: %d then %d", first, got)
		}
	}
	if d.Size() != 1 {
		t.Errorf("Size = %d, want 1", d.Size())
	}
}

func TestKindsDoNotCollide(t *testing.T) {
	d := New()
	iri := d.Encode(rdf.NewIRI("x"))
	lit := d.Encode(rdf.NewLiteral("x"))
	blk := d.Encode(rdf.NewBlank("x"))
	lang := d.Encode(rdf.NewLangLiteral("x", "en"))
	typed := d.Encode(rdf.NewTypedLiteral("x", "http://dt"))
	ids := []uint32{iri, lit, blk, lang, typed}
	seen := map[uint32]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("id collision among kinds: %v", ids)
		}
		seen[id] = true
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	d := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://a"),
		rdf.NewLiteral("with \"quotes\""),
		rdf.NewLangLiteral("hi", "en"),
		rdf.NewBlank("b0"),
	}
	for _, term := range terms {
		id := d.Encode(term)
		if got := d.Decode(id); got != term {
			t.Errorf("Decode(Encode(%v)) = %v", term, got)
		}
	}
}

func TestLookup(t *testing.T) {
	d := New()
	term := rdf.NewIRI("http://present")
	id := d.Encode(term)
	if got, ok := d.Lookup(term); !ok || got != id {
		t.Errorf("Lookup(present) = %d,%v", got, ok)
	}
	if _, ok := d.Lookup(rdf.NewIRI("http://absent")); ok {
		t.Errorf("Lookup(absent) reported present")
	}
	if _, ok := d.LookupIRI("http://present"); !ok {
		t.Errorf("LookupIRI(present) reported absent")
	}
	if !d.Contains(term) || d.Contains(rdf.NewIRI("http://absent")) {
		t.Errorf("Contains wrong")
	}
}

func TestDecodePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Decode of unassigned id should panic")
		}
	}()
	New().Decode(7)
}

func TestTermsView(t *testing.T) {
	d := New()
	for _, v := range []string{"http://a", "http://b", "http://c"} {
		d.Encode(rdf.NewIRI(v))
	}
	view := d.Terms()
	if len(view) != 3 || view[2] != rdf.NewIRI("http://c") {
		t.Fatalf("view = %v", view)
	}
	// The table has spare capacity now; appending to the old view after
	// the next Encode must not overwrite that Encode's term.
	late := d.Encode(rdf.NewIRI("http://late"))
	_ = append(view, rdf.NewIRI("http://bogus"))
	if got := d.Decode(late); got != rdf.NewIRI("http://late") {
		t.Fatalf("Decode(%d) = %v after appending to a view", late, got)
	}
	if len(view) != 3 {
		t.Fatalf("old view grew to %d", len(view))
	}
	if v := d.Terms(); len(v) != 4 || v[late] != rdf.NewIRI("http://late") {
		t.Fatalf("fresh view = %v", v)
	}
}

// TestTermsViewConcurrentEncode decodes through views while one goroutine
// keeps encoding new terms (run it under -race). A reader whose view is
// too short for a published id re-takes it and must then find the new
// term; readers go through at least one such refresh.
func TestTermsViewConcurrentEncode(t *testing.T) {
	const n, readers = 5000, 4
	term := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/t%d", i)) }
	d := New()
	var published atomic.Int64 // ids below this are assigned
	var wg sync.WaitGroup
	refreshes := make([]int, readers)
	for r := 0; r < readers; r++ {
		view := d.Terms() // taken before any Encode, so it starts stale
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for id := 0; id < n; {
				if int64(id) >= published.Load() {
					runtime.Gosched() // wait for the writer to publish id
					continue
				}
				if id >= len(view) {
					view = d.Terms()
					refreshes[r]++
					if id >= len(view) {
						t.Errorf("reader %d: id %d published but view has %d terms", r, id, len(view))
						return
					}
				}
				if view[id] != term(id) {
					t.Errorf("reader %d: view[%d] = %v, want %v", r, id, view[id], term(id))
					return
				}
				id++
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if id := d.Encode(term(i)); int(id) != i {
				t.Errorf("Encode(term %d) = %d", i, id)
			}
			published.Store(int64(i + 1))
		}
	}()
	wg.Wait()
	for r, c := range refreshes {
		if c == 0 {
			t.Errorf("reader %d never refreshed a stale view", r)
		}
	}
}

func TestEncodeTriple(t *testing.T) {
	d := New()
	tr := rdf.Triple{S: rdf.NewIRI("http://s"), P: rdf.NewIRI("http://p"), O: rdf.NewLiteral("o")}
	s, p, o := d.EncodeTriple(tr)
	if d.Decode(s) != tr.S || d.Decode(p) != tr.P || d.Decode(o) != tr.O {
		t.Errorf("EncodeTriple round trip failed: %d %d %d", s, p, o)
	}
}

// Property: for any sequence of strings, encoding assigns equal ids iff the
// terms are equal, and Decode inverts Encode.
func TestEncodeBijectionProperty(t *testing.T) {
	f := func(values []string) bool {
		d := New()
		ids := make([]uint32, len(values))
		for i, v := range values {
			ids[i] = d.Encode(rdf.NewLiteral(v))
		}
		for i := range values {
			for j := range values {
				if (values[i] == values[j]) != (ids[i] == ids[j]) {
					return false
				}
			}
			if d.Decode(ids[i]).Value != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeNew(b *testing.B) {
	terms := make([]rdf.Term, 1<<16)
	for i := range terms {
		terms[i] = rdf.NewIRI(fmt.Sprintf("http://example.org/entity/%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New()
		for _, tm := range terms {
			d.Encode(tm)
		}
	}
}

func BenchmarkEncodeExisting(b *testing.B) {
	d := New()
	terms := make([]rdf.Term, 1<<12)
	for i := range terms {
		terms[i] = rdf.NewIRI(fmt.Sprintf("http://example.org/entity/%d", i))
		d.Encode(terms[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Encode(terms[i&(len(terms)-1)])
	}
}

// Package dict implements the dictionary encoding step described in §II-A1
// of the paper: RDF terms of arbitrary type are mapped to dense 32-bit
// unsigned integer keys before any relation is built. All engines in this
// repository share one dictionary per dataset, so encoded ids are directly
// comparable across engines.
//
// Ids are assigned densely in first-registration order. Data generators and
// loaders that register terms grouped by entity class therefore produce
// id-clusters per class, which is what makes the bitset layout in
// internal/set effective (dense ranges of, say, all UndergraduateStudent
// ids).
package dict

import (
	"fmt"
	"sync"

	"repro/internal/rdf"
)

// ID is a dictionary-encoded term identifier. The paper's engines use 32-bit
// values; so do we.
type ID = uint32

// Dictionary maps rdf.Term values to dense uint32 ids and back.
//
// Ids are append-only: once assigned, an id's term never changes, so any id
// a reader obtained stays decodable forever. All methods are safe for
// concurrent use — the live-update write path (internal/live) encodes new
// terms while the immutable base keeps serving readers.
//
// The zero value is not usable; call New.
type Dictionary struct {
	mu    sync.RWMutex
	byKey map[string]ID
	terms []rdf.Term
}

// New returns an empty dictionary.
func New() *Dictionary {
	return &Dictionary{byKey: make(map[string]ID)}
}

// Encode returns the id for t, assigning the next dense id if t has not been
// seen before.
func (d *Dictionary) Encode(t rdf.Term) ID {
	key := t.Key()
	d.mu.RLock()
	id, ok := d.byKey[key]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byKey[key]; ok {
		return id
	}
	id = ID(len(d.terms))
	d.byKey[key] = id
	d.terms = append(d.terms, t)
	return id
}

// EncodeTriple encodes all three positions of t.
func (d *Dictionary) EncodeTriple(t rdf.Triple) (s, p, o ID) {
	return d.Encode(t.S), d.Encode(t.P), d.Encode(t.O)
}

// Lookup returns the id for t without assigning a new one. The second result
// reports whether t was present.
func (d *Dictionary) Lookup(t rdf.Term) (ID, bool) {
	d.mu.RLock()
	id, ok := d.byKey[t.Key()]
	d.mu.RUnlock()
	return id, ok
}

// LookupIRI is shorthand for Lookup(rdf.NewIRI(iri)).
func (d *Dictionary) LookupIRI(iri string) (ID, bool) {
	return d.Lookup(rdf.NewIRI(iri))
}

// Decode returns the term for id. It panics if id was never assigned, which
// indicates corrupted engine state rather than bad user input.
func (d *Dictionary) Decode(id ID) rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.terms) {
		panic(fmt.Sprintf("dict: decode of unassigned id %d (size %d)", id, len(d.terms)))
	}
	return d.terms[id]
}

// Terms returns a read-only view of the term table: Terms()[id] is the term
// for every id assigned before the call. The view is clipped to its length,
// so appending to it cannot reach the table, and it never changes: Encode
// only writes past the end of any view already handed out. Callers that
// decode many ids take one view and re-take it only for an id at or past
// its length, instead of paying Decode's read lock per id.
func (d *Dictionary) Terms() []rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[:len(d.terms):len(d.terms)]
}

// Size returns the number of distinct terms registered.
func (d *Dictionary) Size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// Contains reports whether t has been assigned an id.
func (d *Dictionary) Contains(t rdf.Term) bool {
	d.mu.RLock()
	_, ok := d.byKey[t.Key()]
	d.mu.RUnlock()
	return ok
}

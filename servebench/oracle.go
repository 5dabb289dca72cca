package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/store"
)

// oracleEngine gives the expected answers; crossEngine, a pairwise
// column-store baseline of another engine family, checks the oracle once
// per run.
const (
	oracleEngine = "emptyheaded"
	crossEngine  = "monetdb"
)

// tableQueries are the paper's Table II queries at the benchmark scale.
func tableQueries() map[int]string { return lubm.Queries(scale) }

// runQuery executes text on e and returns the answer rows.
func runQuery(e engine.Engine, text string) ([][]uint32, error) {
	q, err := query.ParseSPARQL(text)
	if err != nil {
		return nil, err
	}
	res, err := engine.Execute(e, q)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// rowKeys renders rows as sorted strings, a multiset comparable across
// engines and with the server's decoded answers.
func rowKeys(d *dict.Dictionary, rows [][]uint32) []string {
	out := make([]string, len(rows))
	var b strings.Builder
	for i, r := range rows {
		b.Reset()
		for j, id := range r {
			if j > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(d.Decode(id).String())
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// oracleCounts returns the Table II row counts from the engine layer over
// st, after checking every answer row-for-row against the second engine
// family.
func oracleCounts(st *store.Store) (map[int]int, error) {
	oe, err := engines.New(oracleEngine, st)
	if err != nil {
		return nil, err
	}
	ce, err := engines.New(crossEngine, st)
	if err != nil {
		return nil, err
	}
	counts := map[int]int{}
	for n, text := range tableQueries() {
		a, err := runQuery(oe, text)
		if err != nil {
			return nil, fmt.Errorf("q%d on %s: %w", n, oracleEngine, err)
		}
		b, err := runQuery(ce, text)
		if err != nil {
			return nil, fmt.Errorf("q%d on %s: %w", n, crossEngine, err)
		}
		if !slices.Equal(rowKeys(st.Dict(), a), rowKeys(st.Dict(), b)) {
			return nil, fmt.Errorf("q%d: %s returns %d rows, %s %d, or the rows differ", n, oracleEngine, len(a), crossEngine, len(b))
		}
		counts[n] = len(a)
	}
	return counts, nil
}

const queryPrefixes = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\nPREFIX ub: <" + lubm.Namespace + ">\n"

// shape is one point-query template after a Table II query: its constant
// is drawn from the dataset and its class names from types. Templates take
// the class (%[1]s), a second class (%[2]s) and the constant (%[3]s).
type shape struct {
	tmpl  string
	types [][2]string
	pool  func(p *pools) []string
}

// shapes follow Table II queries 1, 3, 4, 5, 7, 11 and 12, in that order.
var shapes = []shape{
	{`SELECT ?X WHERE { ?X rdf:type ub:%[1]s . ?X ub:takesCourse %[3]s . }`,
		[][2]string{{"GraduateStudent"}, {"UndergraduateStudent"}}, func(p *pools) []string { return p.courses }},
	{`SELECT ?X WHERE { ?X rdf:type ub:%[1]s . ?X ub:publicationAuthor %[3]s . }`,
		[][2]string{{"Publication"}}, func(p *pools) []string { return p.authors }},
	{`SELECT ?X ?Y1 ?Y2 ?Y3 WHERE { ?X rdf:type ub:%[1]s . ?X ub:worksFor %[3]s . ?X ub:name ?Y1 . ?X ub:emailAddress ?Y2 . ?X ub:telephone ?Y3 . }`,
		[][2]string{{"FullProfessor"}, {"AssociateProfessor"}, {"AssistantProfessor"}, {"Lecturer"}}, func(p *pools) []string { return p.depts }},
	{`SELECT ?X WHERE { ?X rdf:type ub:%[1]s . ?X ub:memberOf %[3]s . }`,
		[][2]string{{"UndergraduateStudent"}, {"GraduateStudent"}}, func(p *pools) []string { return p.depts }},
	{`SELECT ?X ?Y WHERE { ?X rdf:type ub:%[1]s . ?Y rdf:type ub:%[2]s . ?X ub:takesCourse ?Y . %[3]s ub:teacherOf ?Y . }`,
		[][2]string{{"UndergraduateStudent", "Course"}, {"GraduateStudent", "GraduateCourse"}}, func(p *pools) []string { return p.teachers }},
	{`SELECT ?X WHERE { ?X rdf:type ub:%[1]s . ?X ub:subOrganizationOf %[3]s . }`,
		[][2]string{{"ResearchGroup"}}, func(p *pools) []string { return p.orgs }},
	{`SELECT ?X ?Y WHERE { ?X rdf:type ub:%[1]s . ?Y rdf:type ub:Department . ?X ub:worksFor ?Y . ?Y ub:subOrganizationOf %[3]s . }`,
		[][2]string{{"FullProfessor"}, {"AssociateProfessor"}, {"AssistantProfessor"}, {"Lecturer"}}, func(p *pools) []string { return p.univs }},
}

// pools holds the dataset's constants by role, as N-Triples renderings.
type pools struct {
	courses, authors, depts, teachers, orgs, univs []string
}

// collectPools reads the constants each shape can take from st, sorted so
// a seed always draws the same ones.
func collectPools(st *store.Store) *pools {
	d := st.Dict()
	id := func(iri string) uint32 {
		v, _ := d.LookupIRI(iri)
		return v
	}
	takes, author, works, member, teaches, subOrg := id(lubm.PropTakesCourse), id(lubm.PropPublicationAuthor),
		id(lubm.PropWorksFor), id(lubm.PropMemberOf), id(lubm.PropTeacherOf), id(lubm.PropSubOrganizationOf)
	typ, univ := id(lubm.RDFTypeIRI), id(lubm.ClassUniversity)
	sets := map[string]map[uint32]bool{}
	add := func(role string, v uint32) {
		if sets[role] == nil {
			sets[role] = map[uint32]bool{}
		}
		sets[role][v] = true
	}
	for _, t := range st.Triples() {
		switch t.P {
		case takes:
			add("courses", t.O)
		case author:
			add("authors", t.O)
		case works, member:
			add("depts", t.O)
		case teaches:
			add("teachers", t.S)
		case subOrg:
			add("orgs", t.O)
		case typ:
			if t.O == univ {
				add("univs", t.S)
			}
		}
	}
	render := func(role string) []string {
		var out []string
		for v := range sets[role] {
			out = append(out, d.Decode(v).String())
		}
		sort.Strings(out)
		return out
	}
	return &pools{
		courses: render("courses"), authors: render("authors"), depts: render("depts"),
		teachers: render("teachers"), orgs: render("orgs"), univs: render("univs"),
	}
}

// pick is one drawn point query: shape, class variant, constant.
type pick struct {
	shape, variant uint8
	c              int32
}

// distinctTexts is point-distinct's query stream. Text i is a fresh point
// query: every (shape, class, constant) combination of the dataset in a
// seeded order, with every tenth text instead naming a constant that does
// not exist. A combination repeats only after all have been used
// (repeats reports how often that happened, and the report shows it).
type distinctTexts struct {
	p     *pools
	picks []pick
}

func newDistinctTexts(p *pools, seed int64) *distinctTexts {
	var picks []pick
	for si, s := range shapes {
		n := len(s.pool(p))
		for vi := range s.types {
			for c := 0; c < n; c++ {
				picks = append(picks, pick{uint8(si), uint8(vi), int32(c)})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	return &distinctTexts{p: p, picks: picks}
}

// pickOf is the index into picks behind text i, or -1 when text i names
// a constant that does not exist (and never repeats).
func (g *distinctTexts) pickOf(i int) int {
	if i%10 == 9 {
		return -1
	}
	return (i - (i+1)/10) % len(g.picks)
}

// text returns query i of the stream.
func (g *distinctTexts) text(i int) string {
	if i%10 == 9 {
		s := shapes[(i/10)%len(shapes)]
		ghost := fmt.Sprintf("<http://www.Department0.University0.edu/Missing%d>", i)
		return queryPrefixes + fmt.Sprintf(s.tmpl, s.types[0][0], s.types[0][1], ghost)
	}
	pk := g.picks[g.pickOf(i)]
	s := shapes[pk.shape]
	return queryPrefixes + fmt.Sprintf(s.tmpl, s.types[pk.variant][0], s.types[pk.variant][1], s.pool(g.p)[pk.c])
}

// repeats is how many of the first n texts repeat an earlier one.
func (g *distinctTexts) repeats(n int) int {
	existing := n - n/10
	if existing <= len(g.picks) {
		return 0
	}
	return existing - len(g.picks)
}

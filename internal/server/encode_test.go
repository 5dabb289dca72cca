package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// escapeObjects are the objects of escapeStore: every escaping path of both
// the N-Triples renderer and the JSON string encoder.
var escapeObjects = []rdf.Term{
	rdf.NewLiteral("q\"b\\n\nr\rt\tb\bf\f1\x01d\x7f"),
	rdf.NewLiteral("ls\u2028ps\u2029bad\xff\xfecut\xe2\x82"),
	rdf.NewLiteral("nl\nbad\xffbyte"), // N-Triples escaping re-encodes \xff as U+FFFD
	rdf.NewLangLiteral("a<&>b", "fr"),
	rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
	rdf.NewBlank("b0"),
	rdf.NewIRI("http://ex/a<&>b"),
}

// escapeStore builds one triple <http://ex/sN> <http://ex/p> obj per
// escapeObjects entry.
func escapeStore() *store.Store {
	b := store.NewBuilder()
	p := rdf.NewIRI("http://ex/p")
	for i, o := range escapeObjects {
		b.Add(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)), P: p, O: o})
	}
	return b.Build()
}

var (
	tookRe = regexp.MustCompile(`"took_ms":[0-9.e+-]+`)
	idRe   = regexp.MustCompile(`"id":"[a-z0-9]+"`)
)

// The bodies below were captured from the memoizing renderer this encoder
// replaced (one json.Encoder per distinct term over Term.String); the
// append path must reproduce them byte for byte. took_ms and id are
// normalized.
const (
	goldenJSON = "{\"vars\":[\"s\",\"o\"],\"id\":\"q\",\"engine\":\"emptyheaded\",\"cache\":\"miss\",\"rows\":[" +
		"[\"<http://ex/s0>\",\"\\\"q\\\\\\\"b\\\\\\\\n\\\\nr\\\\rt\\\\tb\\bf\\f1\\u0001d\x7f\\\"\"]," +
		"[\"<http://ex/s1>\",\"\\\"ls\\u2028ps\\u2029bad\\ufffd\\ufffdcut\\ufffd\\ufffd\\\"\"]," +
		"[\"<http://ex/s2>\",\"\\\"nl\\\\nbad\ufffdbyte\\\"\"]," +
		"[\"<http://ex/s3>\",\"\\\"a<&>b\\\"@fr\"]," +
		"[\"<http://ex/s4>\",\"\\\"42\\\"^^<http://www.w3.org/2001/XMLSchema#integer>\"]," +
		"[\"<http://ex/s5>\",\"_:b0\"]," +
		"[\"<http://ex/s6>\",\"<http://ex/a<&>b>\"]]," +
		"\"count\":7,\"took_ms\":0}\n"
	goldenTSV = "?s\t?o\n" +
		"<http://ex/s0>\t\"q\\\"b\\\\n\\nr\\rt\\tb\bf\f1\x01d\x7f\"\n" +
		"<http://ex/s1>\t\"ls\u2028ps\u2029bad\xff\xfecut\xe2\x82\"\n" +
		"<http://ex/s2>\t\"nl\\nbad\ufffdbyte\"\n" +
		"<http://ex/s3>\t\"a<&>b\"@fr\n" +
		"<http://ex/s4>\t\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>\n" +
		"<http://ex/s5>\t_:b0\n" +
		"<http://ex/s6>\t<http://ex/a<&>b>\n"
)

// TestEncodeGoldenBodies pins /query's JSON and TSV bodies over escapeStore,
// and checks that every JSON cell decodes to its term's N-Triples rendering.
func TestEncodeGoldenBodies(t *testing.T) {
	_, ts := newTestServer(t, escapeStore(), Config{})
	q := `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`
	for _, tc := range []struct{ format, want string }{{"json", goldenJSON}, {"tsv", goldenTSV}} {
		code, body := get(t, queryURL(ts.URL, q, map[string]string{"format": tc.format}))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d, body %q", tc.format, code, body)
		}
		body = tookRe.ReplaceAllString(body, `"took_ms":0`)
		body = idRe.ReplaceAllString(body, `"id":"q"`)
		if body != tc.want {
			t.Errorf("%s body changed:\n got %q\nwant %q", tc.format, body, tc.want)
		}
	}

	var out struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(goldenJSON), &out); err != nil {
		t.Fatalf("golden JSON does not parse: %v", err)
	}
	if len(out.Rows) != len(escapeObjects) {
		t.Fatalf("got %d rows, want %d", len(out.Rows), len(escapeObjects))
	}
	for i, o := range escapeObjects {
		// JSON carries each invalid UTF-8 byte as U+FFFD, as a []rune
		// conversion does.
		want := []string{rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)).String(), string([]rune(o.String()))}
		if !slices.Equal(out.Rows[i], want) {
			t.Errorf("row %d decodes to %q, want %q", i, out.Rows[i], want)
		}
	}
}

// sliceCursor replays fixed rows; reset rewinds it for the next run.
type sliceCursor struct {
	vars []string
	rows [][]uint32
	pos  int
}

func (c *sliceCursor) Vars() []string  { return c.vars }
func (c *sliceCursor) Truncated() bool { return false }
func (c *sliceCursor) Close() error    { return nil }
func (c *sliceCursor) reset()          { c.pos = 0 }
func (c *sliceCursor) Next() ([]uint32, error) {
	if c.pos == len(c.rows) {
		return nil, io.EOF
	}
	c.pos++
	return c.rows[c.pos-1], nil
}

// distinctRows registers 2n terms (IRIs and literals that need escaping)
// and returns n two-column rows that each name two terms no other row
// names, so nothing a per-response memo could reuse repeats.
func distinctRows(n int) (*dict.Dictionary, *sliceCursor) {
	d := dict.New()
	cur := &sliceCursor{vars: []string{"s", "o"}}
	for i := 0; i < n; i++ {
		s := d.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)))
		o := d.Encode(rdf.NewLiteral(fmt.Sprintf("lit \"%d\"\n", i)))
		cur.rows = append(cur.rows, []uint32{s, o})
	}
	return d, cur
}

// TestEncodeAllocsConstant bounds the encoders' allocations per response
// by a constant: rendering a cell appends into the response buffer and
// allocates nothing, so 10,000 rows cost what 100 rows do.
func TestEncodeAllocsConstant(t *testing.T) {
	const maxAllocs = 16
	tookMs := func() float64 { return 1.5 }
	for _, n := range []int{100, 10000} {
		d, cur := distinctRows(n)
		jsonAllocs := testing.AllocsPerRun(5, func() {
			cur.reset()
			if res := writeJSON(io.Discard, cur.vars, cur, d, queryMeta{QueryID: "q1", Engine: "e", Cache: "miss"}, tookMs, nil, nil); res.rows != n || res.err != nil {
				t.Fatalf("writeJSON: %+v", res)
			}
		})
		tsvAllocs := testing.AllocsPerRun(5, func() {
			cur.reset()
			if res := writeTSV(io.Discard, cur.vars, cur, d); res.rows != n || res.err != nil {
				t.Fatalf("writeTSV: %+v", res)
			}
		})
		t.Logf("%d rows: writeJSON %.0f allocs, writeTSV %.0f allocs", n, jsonAllocs, tsvAllocs)
		if jsonAllocs > maxAllocs || tsvAllocs > maxAllocs {
			t.Errorf("%d rows: writeJSON %.0f, writeTSV %.0f allocs per response; want at most %d regardless of rows",
				n, jsonAllocs, tsvAllocs, maxAllocs)
		}
	}
}

// growingCursor registers a new term before returning each row, naming
// it: every row's id lies past any dictionary view taken before it.
type growingCursor struct {
	sliceCursor
	d *dict.Dictionary
	n int
}

func (c *growingCursor) Next() ([]uint32, error) {
	if c.pos == c.n {
		return nil, io.EOF
	}
	c.pos++
	return []uint32{c.d.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/late%d", c.pos)))}, nil
}

// TestEncodeSeesTermsAddedMidStream checks that the encoders decode ids
// assigned after they took their dictionary view (a live update that
// commits mid-stream), in both formats.
func TestEncodeSeesTermsAddedMidStream(t *testing.T) {
	const n = 3
	var want strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&want, "<http://ex/late%d>\n", i)
	}
	d := dict.New()
	d.Encode(rdf.NewIRI("http://ex/early"))
	var tsv bytes.Buffer
	if res := writeTSV(&tsv, []string{"x"}, &growingCursor{d: d, n: n}, d); res.err != nil || res.rows != n {
		t.Fatalf("writeTSV: %+v", res)
	}
	if got := strings.TrimPrefix(tsv.String(), "?x\n"); got != want.String() {
		t.Fatalf("TSV rows %q, want %q", got, want.String())
	}

	d = dict.New()
	d.Encode(rdf.NewIRI("http://ex/early"))
	var js bytes.Buffer
	if res := writeJSON(&js, []string{"x"}, &growingCursor{d: d, n: n}, d, queryMeta{}, func() float64 { return 0 }, nil, nil); res.err != nil || res.rows != n {
		t.Fatalf("writeJSON: %+v", res)
	}
	if !strings.Contains(js.String(), `"rows":[["<http://ex/late1>"],["<http://ex/late2>"],["<http://ex/late3>"]]`) {
		t.Fatalf("JSON body %q lacks the late terms", js.String())
	}
}

// jsonEncode is encoding/json's rendering of s with HTML escaping off.
func jsonEncode(t testing.TB, s string) string {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(s); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(buf.String(), "\n")
}

// TestAppendJSONStringEveryByte puts every byte value at every offset of a
// 20-byte plain ASCII string, so each byte is met both inside the 8-byte
// word scan and in the byte-at-a-time tail.
func TestAppendJSONStringEveryByte(t *testing.T) {
	plain := []byte("abcdefghijklmnopqrst")
	for pos := range plain {
		for b := 0; b < 256; b++ {
			src := slices.Clone(plain)
			src[pos] = byte(b)
			if got, want := string(appendJSONString(nil, src)), jsonEncode(t, string(src)); got != want {
				t.Fatalf("byte %#x at %d: got %q, want %q", b, pos, got, want)
			}
		}
	}
}

// FuzzAppendJSONString checks appendJSONString against encoding/json with
// HTML escaping off, byte for byte, appending after a prefix so the result
// must extend dst.
func FuzzAppendJSONString(f *testing.F) {
	f.Add([]byte(`say "hi" \ bye`))
	ctl := make([]byte, 0, 0x21)
	for b := 0; b < 0x20; b++ {
		ctl = append(ctl, byte(b))
	}
	f.Add(append(ctl, 0x7f))
	f.Add([]byte("ls\u2028ps\u2029"))
	f.Add([]byte("bad\xff\xfe"))
	f.Add([]byte("cut\xe2\x82"))
	f.Add([]byte("<&>"))
	f.Add([]byte("\u00e9\U0001F600\ufffd"))
	f.Fuzz(func(t *testing.T, src []byte) {
		got := appendJSONString([]byte("prefix"), src)
		if w := "prefix" + jsonEncode(t, string(src)); string(got) != w {
			t.Fatalf("appendJSONString(%q) = %q, want %q", src, got, w)
		}
	})
}

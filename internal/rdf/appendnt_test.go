package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// stringNT is the concatenating renderer AppendNT replaced, kept verbatim
// as the reference its output must equal.
func stringNT(t Term) string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	case Literal:
		var b strings.Builder
		b.WriteByte('"')
		b.WriteString(escapeLiteralRef(t.Value))
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	default:
		return fmt.Sprintf("<invalid term kind %d>", t.Kind)
	}
}

func escapeLiteralRef(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// ntAlphabet biases generated strings toward the bytes the renderers treat
// specially: escapes, controls, multi-byte runes and invalid UTF-8.
var ntAlphabet = []string{"a", "Z", "0", " ", "<", ">", "&", "\"", "\\", "\n", "\r", "\t", "\b", "\x01", "\x7f",
	"\u00e9", "\u2028", "\U0001F600", "\xff", "\xe2\x82", "\ufffd"}

// randomTerm generates (for testing/quick) terms of every kind,
// including an out-of-range kind.
type randomTerm struct{ Term }

func (randomTerm) Generate(r *rand.Rand, size int) reflect.Value {
	str := func() string {
		var b strings.Builder
		for n := r.Intn(size + 1); n > 0; n-- {
			b.WriteString(ntAlphabet[r.Intn(len(ntAlphabet))])
		}
		return b.String()
	}
	var t Term
	switch r.Intn(6) {
	case 0:
		t = NewIRI(str())
	case 1:
		t = NewBlank(str())
	case 2:
		t = NewLiteral(str())
	case 3:
		t = NewTypedLiteral(str(), str())
	case 4:
		t = NewLangLiteral(str(), str())
	default:
		t = Term{Kind: TermKind(3 + r.Intn(253)), Value: str()}
	}
	return reflect.ValueOf(randomTerm{t})
}

// TestAppendNTMatchesString checks AppendNT, String and Key against the
// reference renderer for IRIs, blank nodes, plain, typed and
// language-tagged literals, and invalid kinds, appending after a prefix
// so the result must extend dst rather than replace it.
func TestAppendNTMatchesString(t *testing.T) {
	prop := func(rt randomTerm) bool {
		want := stringNT(rt.Term)
		got := rt.AppendNT([]byte("prefix"))
		return string(got) == "prefix"+want && rt.String() == want && rt.Key() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	tr := Triple{S: NewIRI("http://s"), P: NewIRI("http://p"), O: NewLangLiteral("a\"b", "en")}
	if got, want := tr.String(), `<http://s> <http://p> "a\"b"@en .`; got != want {
		t.Fatalf("Triple.String = %q, want %q", got, want)
	}
}

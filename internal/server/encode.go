package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"sync"
	"unicode/utf8"

	"repro/internal/cluster"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// Result encoders pull rows from the cursor and stream them straight to the
// response writer: each row's cells are appended as bytes into the free
// space of a pooled 32 KB bufio.Writer — the term's N-Triples rendering for
// TSV, that rendering JSON-escaped (through one per-response scratch slice)
// for JSON — and handed to Write. Neither the encoded result rows nor their
// renderings are ever materialized, no per-term string or map entry is
// built, and the first byte reaches the client while the join is still
// enumerating. A response allocates a constant amount, whatever its row
// count.

// writerPool recycles the encoders' response buffers across requests.
var writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}

func getWriter(w io.Writer) *bufio.Writer {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// putWriter returns bw to the pool without its response writer, so the pool
// never keeps a finished response reachable.
func putWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	writerPool.Put(bw)
}

// rowSlack is the free space a row starts in: with less left, the buffer is
// flushed first, so appending a row (up to rowSlack bytes) into
// AvailableBuffer never outgrows it and never allocates.
const rowSlack = 4 << 10

// rowBuffer returns bw's free space for appending one row, flushing first
// when less than rowSlack bytes of it remain.
func rowBuffer(bw *bufio.Writer) ([]byte, error) {
	if bw.Available() < rowSlack {
		if err := bw.Flush(); err != nil {
			return nil, err
		}
	}
	return bw.AvailableBuffer(), nil
}

// termView decodes ids through one dict.Terms view per response, taking a
// fresh view only for an id assigned after the current one was taken (a
// live update that committed mid-stream).
type termView struct {
	d     *dict.Dictionary
	terms []rdf.Term
}

func (v *termView) term(id uint32) *rdf.Term {
	if int(id) >= len(v.terms) {
		v.terms = v.d.Terms()
		if int(id) >= len(v.terms) {
			v.d.Decode(id) // never assigned: panics with Decode's message
		}
	}
	return &v.terms[id]
}

// queryMeta is the non-row metadata included in JSON responses.
type queryMeta struct {
	QueryID string // per-request id, also in the X-Query-ID header
	Engine  string // engine that executed the query
	Cache   string // "hit" or "miss" on the plan cache
}

// encodeResult is what an encoder reports back to the handler: how many
// rows went out, whether the row cap truncated the stream, and the error
// that ended it — nil for a complete result, the cursor's error (deadline,
// cancellation, execution failure) or the write error otherwise. Once rows
// have been streamed the HTTP status is already committed, so mid-stream
// errors are reported in-band (a trailing "error" field in JSON, an HTTP
// trailer for both formats) and counted in /stats by the caller.
type encodeResult struct {
	rows      int
	truncated bool
	err       error
}

// writeJSON streams the result as one JSON object:
//
//	{"vars":[...],"id":"q7","engine":"...","cache":"hit",
//	 "rows":[["<iri>","\"literal\""],...],
//	 "count":N,"truncated":true,"took_ms":1.2,"error":"...",
//	 "partial":[{"shard":1,"mode":"lost"}],"trace":{...}}
//
// Rows hold the canonical N-Triples term renderings. count, truncated, and
// took_ms trail the rows because they are only known once the stream ends;
// error appears only when the stream ended abnormally. partial, when the
// partial callback is non-nil and reports missing shards (cluster serving
// under degradation), lists the shards whose rows may be incomplete.
// trace, when the trace callback is non-nil (?explain=1), is the query's
// span tree — the callback runs after the last row, once every stage has
// finished, and receives the encoded row count.
func writeJSON(w io.Writer, vars []string, cur engine.Cursor, d *dict.Dictionary, meta queryMeta, tookMs func() float64, partial func() []cluster.PartialShard, trace func(rows int) *obs.TraceSnapshot) encodeResult {
	bw := getWriter(w)
	defer putWriter(bw)

	bw.WriteString(`{"vars":[`)
	for i, v := range vars {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.Write(appendJSONString(bw.AvailableBuffer(), []byte(v)))
	}
	bw.WriteString(`]`)
	if meta.QueryID != "" {
		bw.WriteString(`,"id":"`)
		bw.WriteString(meta.QueryID) // NextQueryID emits [a-z0-9]+ only
		bw.WriteString(`"`)
	}
	bw.WriteString(`,"engine":`)
	bw.Write(appendJSONString(bw.AvailableBuffer(), []byte(meta.Engine)))
	bw.WriteString(`,"cache":"`)
	bw.WriteString(meta.Cache)
	bw.WriteString(`","rows":[`)

	res := encodeResult{}
	terms := termView{d: d}
	nt := make([]byte, 0, 256) // the current cell's N-Triples rendering, reused
	for {
		row, err := cur.Next()
		if err == io.EOF {
			res.truncated = cur.Truncated()
			break
		}
		if err != nil {
			res.err = err
			break
		}
		buf, err := rowBuffer(bw)
		if err != nil {
			res.err = err
			break
		}
		if res.rows > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j, id := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			nt = terms.term(id).AppendNT(nt[:0])
			buf = appendJSONString(buf, nt)
		}
		buf = append(buf, ']')
		if _, err := bw.Write(buf); err != nil {
			res.err = err
			break
		}
		res.rows++
	}

	bw.WriteString(`],"count":`)
	cb, _ := json.Marshal(res.rows)
	bw.Write(cb)
	if res.truncated {
		bw.WriteString(`,"truncated":true`)
	}
	bw.WriteString(`,"took_ms":`)
	tb, _ := json.Marshal(tookMs())
	bw.Write(tb)
	if res.err != nil {
		bw.WriteString(`,"error":`)
		bw.Write(appendJSONString(bw.AvailableBuffer(), []byte(res.err.Error())))
	}
	if partial != nil {
		if miss := partial(); len(miss) > 0 {
			if pb, perr := json.Marshal(miss); perr == nil {
				bw.WriteString(`,"partial":`)
				bw.Write(pb)
			}
		}
	}
	if trace != nil {
		if snap := trace(res.rows); snap != nil {
			if sb, serr := json.Marshal(snap); serr == nil {
				bw.WriteString(`,"trace":`)
				bw.Write(sb)
			}
		}
	}
	bw.WriteString("}\n")
	if ferr := bw.Flush(); ferr != nil && res.err == nil {
		res.err = ferr
	}
	return res
}

// writeTSV streams the result as tab-separated values: a "?var" header line
// followed by one line per row of N-Triples term renderings (whose escaping
// already keeps tabs and newlines out of the raw text). A mid-stream error
// simply ends the body; the X-Error HTTP trailer carries the cause.
func writeTSV(w io.Writer, vars []string, cur engine.Cursor, d *dict.Dictionary) encodeResult {
	bw := getWriter(w)
	defer putWriter(bw)
	for i, v := range vars {
		if i > 0 {
			bw.WriteByte('\t')
		}
		bw.WriteByte('?')
		bw.WriteString(v)
	}
	bw.WriteByte('\n')
	res := encodeResult{}
	terms := termView{d: d}
	for {
		row, err := cur.Next()
		if err == io.EOF {
			res.truncated = cur.Truncated()
			break
		}
		if err != nil {
			res.err = err
			break
		}
		buf, err := rowBuffer(bw)
		if err != nil {
			res.err = err
			break
		}
		for j, id := range row {
			if j > 0 {
				buf = append(buf, '\t')
			}
			buf = terms.term(id).AppendNT(buf)
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			res.err = err
			break
		}
		res.rows++
	}
	if ferr := bw.Flush(); ferr != nil && res.err == nil {
		res.err = ferr
	}
	return res
}

// appendJSONString appends src as a JSON string literal, byte for byte what
// encoding/json emits with HTML escaping off (every IRI rendering contains
// '<' and '>'; \u003c soup helps nobody): '"' and '\\' are backslash-escaped,
// \b \f \n \r \t take their short forms, other bytes below 0x20 become
// \u00XX, U+2028 and U+2029 are escaped, and each invalid UTF-8 byte becomes
// \ufffd. Everything else, 0x7f included, is copied as is.
func appendJSONString(dst, src []byte) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0 // src[start:i] is pending verbatim output
	for i := 0; i < len(src); {
		for i+8 <= len(src) && plainJSON8(binary.LittleEndian.Uint64(src[i:])) {
			i += 8
		}
		if i == len(src) {
			break
		}
		b := src[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRune(src[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}

// plainJSON8 reports whether the 8 bytes packed in x are all ASCII that JSON
// copies as is: none below 0x20, none '"' or '\\', none 0x80 or above. Each
// test sets a byte's high bit in its mask only where some byte matches
// (a borrow can spread a match upward, never invent one), so a zero union
// means no byte in the word needs attention.
func plainJSON8(x uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	ctl := (x - 0x20*ones) &^ x
	q := x ^ '"'*ones
	q = (q - ones) &^ q
	bs := x ^ '\\'*ones
	bs = (bs - ones) &^ bs
	return (ctl|q|bs|x)&highs == 0
}

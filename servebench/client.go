package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// clients is the closed-loop client count. The benchmark machine has two
// cores; more clients than cores would measure queueing in the pool rather
// than the layers.
const clients = 2

// spanHeader carries the client span id to the server-side handler span
// in the traced run.
const spanHeader = "X-Bench-Span"

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// queryURL is the GET URL for text against base, with extra parameters.
func queryURL(base, text string, extra string) string {
	u := base + "/query?query=" + url.QueryEscape(text)
	if extra != "" {
		u += "&" + extra
	}
	return u
}

// reply is what the checker learns from one /query response.
type reply struct {
	rows  int    // rows counted in the body
	count int    // the body's own "count" field
	fault string // non-empty: why the response is not a full answer
}

// getQuery sends one GET and reads the body to its last byte into buf.
func getQuery(hc *http.Client, u string, span *open, buf *bytes.Buffer) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return reply{}, err
	}
	if span != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d.%d", span.id, span.req))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	var r reply
	switch {
	case resp.StatusCode != http.StatusOK:
		r.fault = fmt.Sprintf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	case resp.Trailer.Get("X-Error") != "":
		r.fault = "X-Error: " + resp.Trailer.Get("X-Error")
	case resp.Trailer.Get("X-Partial") != "":
		r.fault = "X-Partial: " + resp.Trailer.Get("X-Partial")
	default:
		r.rows, r.count, err = countRows(buf.Bytes())
		if err != nil {
			r.fault = err.Error()
		} else if r.rows != r.count {
			r.fault = fmt.Sprintf("body lists %d rows but reports count %d", r.rows, r.count)
		}
	}
	return r, nil
}

var (
	rowsOpen  = []byte(`"rows":[`)
	countKey  = []byte(`],"count":`)
	rowSep    = []byte(`"],["`)
	errorKey  = []byte(`"error":`)
	truncKey  = []byte(`"truncated":true`)
	emptyRows = []byte(`]`)
)

// countRows counts the rows of a JSON /query body without decoding it.
// Every row is an array of JSON strings, so rows are separated by `"],["`,
// a sequence that cannot occur inside a JSON string (its quotes would be
// escaped). It also returns the body's trailing "count" field.
func countRows(body []byte) (rows, count int, err error) {
	i := bytes.Index(body, rowsOpen)
	j := bytes.LastIndex(body, countKey)
	if i < 0 || j < i {
		return 0, 0, fmt.Errorf("malformed result body: %.200s", body)
	}
	section := body[i+len(rowsOpen) : j+1] // rows plus the closing ']'
	if !bytes.Equal(section, emptyRows) {
		rows = bytes.Count(section, rowSep) + 1
	}
	tail := body[j+len(countKey):]
	end := bytes.IndexAny(tail, ",}")
	if end < 0 {
		return 0, 0, fmt.Errorf("malformed count in %.200s", tail)
	}
	count, err = strconv.Atoi(string(tail[:end]))
	if err != nil {
		return 0, 0, fmt.Errorf("malformed count: %w", err)
	}
	if bytes.Contains(tail, errorKey) {
		return 0, 0, fmt.Errorf("error in result tail: %.200s", tail)
	}
	if bytes.Contains(tail, truncKey) {
		return 0, 0, errors.New("result truncated by the row cap")
	}
	return rows, count, nil
}

// readReq is one read in a stream: the URL to fetch and the row count the
// oracle expects (-1 when the count is checked after the run).
type readReq struct {
	url      string
	expected int
	key      int
}

// readLog is one client's record of a closed-loop run.
type readLog struct {
	lat      []time.Duration // successful reads only
	attempts int
	failed   int
	firstErr string
	deferred []deferredCheck // reads whose count is checked after the run
}

type deferredCheck struct {
	key  int
	rows int
}

func (l *readLog) fail(msg string) {
	l.failed++
	if l.firstErr == "" {
		l.firstErr = msg
	}
}

// loopResult merges the per-client logs of one closed-loop run.
type loopResult struct {
	readLog
	elapsed time.Duration
}

func (r loopResult) qps() float64 { return float64(len(r.lat)) / r.elapsed.Seconds() }

// add appends another run's record to r.
func (r *loopResult) add(o loopResult) {
	r.lat = append(r.lat, o.lat...)
	r.attempts += o.attempts
	r.failed += o.failed
	r.deferred = append(r.deferred, o.deferred...)
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
	r.elapsed += o.elapsed
}

// closedLoop runs the stream's readers, each sending its next read only
// after the previous one completed, until the window closes or, when
// perReader > 0, each has sent that many. With tr non-nil every read is a
// traced request whose span ids ride to the server in spanHeader.
func closedLoop(hc *http.Client, s *stream, window time.Duration, perReader int, tr *tracer) loopResult {
	n := s.readers
	logs := make([]readLog, n)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := &logs[c]
			var buf bytes.Buffer
			for k := 0; time.Now().Before(deadline) && (perReader == 0 || k < perReader); k++ {
				rq := s.next(c, k)
				var sp *open
				if tr != nil {
					sp = tr.request("client.query")
				}
				t0 := time.Now()
				r, err := getQuery(hc, rq.url, sp, &buf)
				lat := time.Since(t0)
				if sp != nil {
					sp.end()
				}
				log.attempts++
				switch {
				case err != nil:
					log.fail(err.Error())
					continue
				case r.fault != "":
					log.fail(r.fault)
					continue
				case rq.expected >= 0 && r.rows != rq.expected:
					log.fail(fmt.Sprintf("read %d: %d rows, oracle says %d", rq.key, r.rows, rq.expected))
					continue
				case rq.expected < 0:
					log.deferred = append(log.deferred, deferredCheck{key: rq.key, rows: r.rows})
				}
				log.lat = append(log.lat, lat)
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{}
	for _, l := range logs {
		res.add(loopResult{readLog: l})
	}
	res.elapsed = time.Since(start)
	return res
}

// writeLog is the open-loop writer's record.
type writeLog struct {
	lat      []time.Duration // from each patch's due time to its response
	maxLag   time.Duration   // furthest a send started behind its due time
	attempts int
	failed   int
	firstErr string
}

// openLoopWriter posts patch(k) to base/update at a fixed rate until the
// window closes, whatever the server's pace: a stall delays every later
// patch, and each patch's latency is timed from when it was due.
func openLoopWriter(hc *http.Client, base string, rate int, window time.Duration, patch func(k int) (body string, wantIns, wantDel int)) writeLog {
	var w writeLog
	period := time.Second / time.Duration(rate)
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if due.Sub(start) >= window {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if lag := time.Since(due); lag > w.maxLag {
			w.maxLag = lag
		}
		body, wantIns, wantDel := patch(k)
		w.attempts++
		err := postUpdate(hc, base, body, wantIns, wantDel)
		done := time.Since(due)
		if err != nil {
			w.failed++
			if w.firstErr == "" {
				w.firstErr = fmt.Sprintf("patch %d: %v", k, err)
			}
			continue
		}
		w.lat = append(w.lat, done)
	}
	return w
}

// postUpdate applies one N-Triples patch and checks the server applied
// exactly the expected inserts and deletes.
func postUpdate(hc *http.Client, base, body string, wantIns, wantDel int) error {
	resp, err := hc.Post(base+"/update", "application/n-triples", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, b)
	}
	var got struct{ Inserted, Deleted int }
	if err := json.Unmarshal(b, &got); err != nil {
		return fmt.Errorf("decoding %.200s: %w", b, err)
	}
	if got.Inserted != wantIns || got.Deleted != wantDel {
		return fmt.Errorf("applied %d inserts and %d deletes, want %d and %d", got.Inserted, got.Deleted, wantIns, wantDel)
	}
	return nil
}

// fetchRows GETs a JSON /query answer and returns its rows as sorted
// tab-joined strings, the form rowKeys gives.
func fetchRows(hc *http.Client, u string) ([]string, error) {
	resp, err := hc.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, b)
	}
	var body struct {
		Rows  [][]string `json:"rows"`
		Error string     `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	if body.Error != "" {
		return nil, errors.New(body.Error)
	}
	out := make([]string, len(body.Rows))
	for i, r := range body.Rows {
		out[i] = strings.Join(r, "\t")
	}
	sort.Strings(out)
	return out, nil
}

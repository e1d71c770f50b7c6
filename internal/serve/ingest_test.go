package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/reader"
	"repro/internal/trace"
	"repro/internal/wal"
)

// postReads drives one POST /reads through the handler in memory and
// returns the recorded response.
func postReads(h http.Handler, id string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/reads", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestIngestAllocsPerPOST pins what the handler allocates for one
// canonical POST /reads on an in-memory session. The scanner must not
// start every request with a fresh 1 MiB buffer: that alone cost
// ≈1.05 MiB per POST and dominated the daemon's allocation profile under
// live load. What remains is the queued batch itself (MaxBatch reads,
// kept by the queue), the scanner's small start buffer and the response
// (≈19 KiB); a durable session journals the lines from a pooled buffer
// and adds nothing. The consumer is held off so the engine's own
// allocations stay out of the count.
func TestIngestAllocsPerPOST(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	opts.QueueBatches = 1 << 20
	durable := opts
	durable.DataDir = t.TempDir()
	durable.Fsync = wal.SyncNever
	for _, tc := range []struct {
		name string
		opts Options
		n    int
	}{
		{"memory/64", opts, 64},
		{"memory/256", opts, 256},
		{"durable/64", durable, 64},
		{"durable/256", durable, 256},
	} {
		if raceEnabled && tc.opts.DataDir != "" {
			continue // the journal buffer is pooled
		}
		n := tc.n
		srv := newTestServer(t, tc.opts)
		sess, err := srv.CreateSession(tr.Header)
		if err != nil {
			t.Fatal(err)
		}
		// With the drain state taken, schedule() starts no consumer; the
		// test empties the queue itself after every POST.
		sess.state.Store(stateActive)
		h := srv.Handler()
		body := ndjson(t, tr.Reads[:n])
		const posts = 200
		reqs := make([]*http.Request, posts)
		recs := make([]*httptest.ResponseRecorder, posts)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/sessions/"+sess.ID+"/reads", bytes.NewReader(body))
			recs[i] = httptest.NewRecorder()
		}
		post := func(i int) {
			h.ServeHTTP(recs[i], reqs[i])
			if recs[i].Code != http.StatusOK {
				t.Fatalf("POST: %d %s", recs[i].Code, recs[i].Body)
			}
			sess.qmu.Lock()
			sess.q, sess.qhead = sess.q[:0], 0
			sess.queued.Store(0)
			sess.qmu.Unlock()
		}
		for i := range 10 {
			post(i) // warm the pools and the queue slice
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 10; i < posts; i++ {
			post(i)
		}
		runtime.ReadMemStats(&after)
		perPOST := (after.TotalAlloc - before.TotalAlloc) / (posts - 10)
		t.Logf("%s: %d B allocated per POST", tc.name, perPOST)
		if perPOST > 24<<10 {
			t.Errorf("%s: %d B allocated per POST, want ≤ %d", tc.name, perPOST, 24<<10)
		}
		sess.state.Store(stateIdle)
		srv.DropSession(sess.ID)
	}
}

// TestIngestLineLimit pins the NDJSON line limit at its boundary: a read
// line padded to the longest length the 1 MiB scan limit admits is
// accepted, and one byte more is rejected as an unreadable body.
func TestIngestLineLimit(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	srv := newTestServer(t, opts)
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	line, err := trace.MarshalRead(tr.Reads[0])
	if err != nil {
		t.Fatal(err)
	}
	// The line plus its '\n' must fit the scanner's 1 MiB buffer.
	const longest = 1<<20 - 1
	padded := func(n int) []byte {
		b := append([]byte(nil), line...)
		b = append(b, bytes.Repeat([]byte{' '}, n-len(line))...)
		return append(b, '\n')
	}
	rec := postReads(h, sess.ID, padded(longest))
	if rec.Code != http.StatusOK {
		t.Fatalf("%d-byte line: status %d %s, want 200", longest, rec.Code, rec.Body)
	}
	var ing IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ing); err != nil || ing.Accepted != 1 {
		t.Fatalf("%d-byte line: accepted %+v (%v), want 1", longest, ing, err)
	}
	rec = postReads(h, sess.ID, padded(longest+1))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "read body") {
		t.Fatalf("%d-byte line: status %d %s, want 400 read body", longest+1, rec.Code, rec.Body)
	}
}

// batchPayloads returns the payload of every batch record in a session's
// log, in append order.
func batchPayloads(t testing.TB, dir string) [][]byte {
	t.Helper()
	segs, err := wal.SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		infos, err := wal.InspectSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ri := range infos {
			if ri.Type == 2 { // batch record
				out = append(out, data[ri.Offset+9:ri.End])
			}
		}
	}
	return out
}

// recoveredReads replays a session's log and flattens its batches.
func recoveredReads(t testing.TB, dir string) []reader.TagRead {
	t.Helper()
	rec, log, err := wal.Recover(dir, wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if log != nil {
		log.Close()
	}
	if rec.Torn {
		t.Fatalf("recovered log is torn: %v", rec.TornCause)
	}
	var out []reader.TagRead
	for _, b := range rec.Batches {
		out = append(out, b...)
	}
	return out
}

// sameReads compares reads bit for bit (floats by their bits, so a
// journaled -0 must come back as -0).
func sameReads(a, b []reader.TagRead) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.EPC != y.EPC || x.Channel != y.Channel || x.Reader != y.Reader ||
			bits(x.Time) != bits(y.Time) || bits(x.Phase) != bits(y.Phase) || bits(x.RSSI) != bits(y.RSSI) {
			return false
		}
	}
	return true
}

// segmentBytes concatenates a session log's segment files.
func segmentBytes(t testing.TB, dir string) []byte {
	t.Helper()
	segs, err := wal.SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

func durableServer(t testing.TB, opts Options) *Server {
	t.Helper()
	opts.DataDir = t.TempDir()
	opts.Fsync = wal.SyncNever
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestJournalCanonicalMatchesEnqueue: a canonical body POSTed over HTTP
// is journaled as received, which for canonical lines is byte for byte
// what Enqueue's re-encoding of the same batches writes.
func TestJournalCanonicalMatchesEnqueue(t *testing.T) {
	tr, _, opts := aisleTrace(t, 5)
	opts.MaxBatch = 100
	viaHTTP := durableServer(t, opts)
	viaEnqueue := durableServer(t, opts)
	hs, err := viaHTTP.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	es, err := viaEnqueue.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	h := viaHTTP.Handler()
	// Bodies of 250 reads: the handler cuts each into 100, 100, 50.
	for start := 0; start < len(tr.Reads); start += 250 {
		body := tr.Reads[start:min(start+250, len(tr.Reads))]
		if rec := postReads(h, hs.ID, ndjson(t, body)); rec.Code != http.StatusOK {
			t.Fatalf("POST: %d %s", rec.Code, rec.Body)
		}
		for b := 0; b < len(body); b += opts.MaxBatch {
			if err := es.Enqueue(body[b:min(b+opts.MaxBatch, len(body))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range []*Session{hs, es} {
		if _, err := s.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	got := segmentBytes(t, filepath.Join(viaHTTP.opts.DataDir, hs.ID))
	want := segmentBytes(t, filepath.Join(viaEnqueue.opts.DataDir, es.ID))
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP-journaled log (%d B) differs from the Enqueue-journaled one (%d B)", len(got), len(want))
	}
}

// nonCanonicalLine renders a read the way a hand-written client might:
// keys reordered, whitespace inside the object, floats with trailing
// zeros ("1.50"), CRLF line ending.
func nonCanonicalLine(rd reader.TagRead) string {
	f := func(v float64) string {
		s := strconv.FormatFloat(v, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s + "0"
	}
	return fmt.Sprintf("  { \"rdr\" : %d, \"t\": %s,\t\"phase\":%s, \"ch\": %d , \"rssi\": %s, \"epc\": %q }\r\n",
		rd.Reader, f(rd.Time), f(rd.Phase), rd.Channel, f(rd.RSSI), rd.EPC.String())
}

// TestJournalNonCanonicalRecovers: a body whose lines are not in the
// canonical encoding is journaled verbatim (trimmed) and recovers to the
// same reads — and, replayed by a restarted daemon, the same final order
// — as its canonical twin.
func TestJournalNonCanonicalRecovers(t *testing.T) {
	tr, _, opts := aisleTrace(t, 6)
	var body strings.Builder
	for _, rd := range tr.Reads {
		body.WriteString(nonCanonicalLine(rd))
	}
	finalOrder := func(srv *Server) []string {
		t.Helper()
		sess, ok := srv.Session("s000001")
		if !ok {
			t.Fatal("session not recovered")
		}
		snap := sess.Latest()
		if snap == nil || !snap.Final {
			t.Fatal("recovered session has no final snapshot")
		}
		return trace.EncodeEPCs(snap.Result.XOrder)
	}
	var dirs [2]string
	var orders [2][]string
	for i, b := range [][]byte{[]byte(body.String()), ndjson(t, tr.Reads)} {
		srv := durableServer(t, opts)
		sess, err := srv.CreateSession(tr.Header)
		if err != nil {
			t.Fatal(err)
		}
		if rec := postReads(srv.Handler(), sess.ID, b); rec.Code != http.StatusOK {
			t.Fatalf("POST: %d %s", rec.Code, rec.Body)
		}
		if _, err := sess.Finish(); err != nil {
			t.Fatal(err)
		}
		dirs[i] = filepath.Join(srv.opts.DataDir, sess.ID)
		rebooted, err := New(srv.opts)
		if err != nil {
			t.Fatal(err)
		}
		orders[i] = finalOrder(rebooted)
	}
	got, want := recoveredReads(t, dirs[0]), recoveredReads(t, dirs[1])
	if !sameReads(got, tr.Reads) || !sameReads(want, tr.Reads) {
		t.Fatal("recovered reads differ from the posted ones")
	}
	if !slices.Equal(orders[0], orders[1]) {
		t.Fatalf("recovered final orders differ:\n  non-canonical %v\n  canonical     %v", orders[0], orders[1])
	}
	// Verbatim: the journal holds the trimmed non-canonical lines.
	if p := batchPayloads(t, dirs[0])[0]; !bytes.HasPrefix(p, []byte(strings.TrimSpace(nonCanonicalLine(tr.Reads[0]))+"\n")) {
		t.Fatalf("first journaled line %q is not the trimmed received line", p[:bytes.IndexByte(p, '\n')+1])
	}
}

// TestJournalMalformedLinePrefix: a body whose line k is malformed (or
// names an unknown reader) is refused with 400, and the journal holds
// exactly the received lines 1..k−1, trimmed, across batch boundaries.
func TestJournalMalformedLinePrefix(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	opts.MaxBatch = 16
	const k = 40 // two full batches, then a salvage flush of 7 lines
	for _, bad := range []string{
		`{"epc":"306400000000000000000001","t":"oops"}`,
		`{"epc":"306400000000000000000001","t":0,"phase":0,"rssi":-60,"ch":6,"rdr":99}`,
	} {
		srv := durableServer(t, opts)
		sess, err := srv.CreateSession(tr.Header)
		if err != nil {
			t.Fatal(err)
		}
		var body, want bytes.Buffer
		for i := 0; i < k-1; i++ {
			line := nonCanonicalLine(tr.Reads[i])
			body.WriteString(line)
			want.WriteString(strings.TrimSpace(line) + "\n")
		}
		body.WriteString(bad + "\n")
		body.Write(ndjson(t, tr.Reads[k:k+20]))
		if rec := postReads(srv.Handler(), sess.ID, body.Bytes()); rec.Code != http.StatusBadRequest ||
			!strings.Contains(rec.Body.String(), fmt.Sprintf("line %d", k)) {
			t.Fatalf("bad line %d: status %d %s, want 400 naming line %d", k, rec.Code, rec.Body, k)
		}
		if _, err := sess.Finish(); err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(srv.opts.DataDir, sess.ID)
		if got := bytes.Join(batchPayloads(t, dir), nil); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("journaled %d B, want exactly lines 1..%d (%d B)", len(got), k-1, want.Len())
		}
		if got := recoveredReads(t, dir); !sameReads(got, tr.Reads[:k-1]) {
			t.Fatalf("recovered %d reads, want lines 1..%d", len(got), k-1)
		}
	}
}

// TestJournalOverMaxRecordReencodes: a batch whose verbatim lines would
// exceed wal.MaxRecord — only possible with lines padded towards the
// 1 MiB line limit — is still accepted, journaled re-encoded, and
// recovers to the same reads.
func TestJournalOverMaxRecordReencodes(t *testing.T) {
	if testing.Short() {
		t.Skip("17 MiB body in -short mode")
	}
	tr, _, opts := aisleTrace(t, 3)
	srv := durableServer(t, opts)
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	reads := tr.Reads[:wal.MaxRecord/(maxLine-1)+1]
	var body bytes.Buffer
	for _, rd := range reads {
		line, err := trace.MarshalRead(rd)
		if err != nil {
			t.Fatal(err)
		}
		// Pad inside the object, so trimming keeps the padding.
		pad := maxLine - 1 - len(line)
		body.Write(line[:len(line)-1])
		body.Write(bytes.Repeat([]byte{' '}, pad))
		body.WriteString("}\n")
	}
	rec := postReads(srv.Handler(), sess.ID, body.Bytes())
	if rec.Code != http.StatusOK {
		t.Fatalf("padded body: %d %s", rec.Code, rec.Body)
	}
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(srv.opts.DataDir, sess.ID)
	payloads := batchPayloads(t, dir)
	if want := ndjson(t, reads); len(payloads) != 1 || !bytes.Equal(payloads[0], want) {
		t.Fatalf("journaled %d records, want one re-encoded batch", len(payloads))
	}
	if got := recoveredReads(t, dir); !sameReads(got, reads) {
		t.Fatalf("recovered %d reads, want the %d posted", len(got), len(reads))
	}
}

// FuzzIngestBody: an arbitrary body POSTed to a durable session never
// panics the handler, and the journal recovers to exactly what the
// handler accepted — value for value trace.UnmarshalRead of the accepted
// lines, in order. The consumer is held off so the target exercises
// ingest and the journal, not the engine.
func FuzzIngestBody(f *testing.F) {
	tr, _, opts := aisleTrace(f, 3)
	opts.MaxBatch = 4
	opts.QueueBatches = 1 << 20
	srv := durableServer(f, opts)
	f.Add(ndjson(f, tr.Reads[:9]))
	f.Add([]byte(nonCanonicalLine(tr.Reads[0]) + "\n\n" + nonCanonicalLine(tr.Reads[1])))
	f.Add([]byte(`{"epc":"306400000000000000000001","t":-0,"phase":1.50,"rssi":-60,"ch":6,"rdr":1}` + "\r\n" + `{"epc":"xyz"}`))
	f.Add([]byte(`{"epc":"306400000000000000000001","t":0,"phase":0,"rssi":-60,"ch":6,"rdr":99}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		sess, err := srv.CreateSession(tr.Header)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.DropSession(sess.ID)
		sess.state.Store(stateActive) // no consumer: the queue just fills
		rec := postReads(srv.Handler(), sess.ID, body)

		// The oracle: the lines the handler must have accepted, up to the
		// first one it refuses.
		var want []reader.TagRead
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(nil, maxLine)
		for sc.Scan() {
			raw := bytes.TrimSpace(sc.Bytes())
			if len(raw) == 0 {
				continue
			}
			rd, err := trace.UnmarshalRead(raw)
			if err != nil || !sess.ValidReader(rd.Reader) {
				break
			}
			want = append(want, rd)
		}

		sess.closeWAL()
		got := recoveredReads(t, filepath.Join(srv.opts.DataDir, sess.ID))
		switch rec.Code {
		case http.StatusOK:
			var ing IngestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ing); err != nil {
				t.Fatal(err)
			}
			if ing.Accepted != len(got) {
				t.Fatalf("accepted %d, journal recovers %d", ing.Accepted, len(got))
			}
		case http.StatusBadRequest:
			if strings.Contains(rec.Body.String(), "read body") {
				// An overlong line: whole batches before it were journaled.
				want = want[:min(len(want), len(got))]
			}
		default:
			t.Fatalf("status %d %s", rec.Code, rec.Body)
		}
		if !sameReads(got, want) {
			t.Fatalf("journal recovers %d reads, want %d accepted lines", len(got), len(want))
		}
		sess.qmu.Lock()
		sess.q, sess.qhead = nil, 0
		sess.queued.Store(0)
		sess.qmu.Unlock()
		sess.state.Store(stateIdle)
	})
}

// TestCreateBodyBounded: a session-create body beyond 1 MiB is refused
// with 413 before it is decoded in full, and creates no session; a
// header just under the bound still creates one.
func TestCreateBodyBounded(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	srv := newTestServer(t, opts)
	h := srv.Handler()
	hdr, err := json.Marshal(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	create := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body)))
		return rec
	}
	// Pad with leading whitespace: valid JSON of any length.
	padded := func(n int) []byte {
		return append(bytes.Repeat([]byte{' '}, n-len(hdr)), hdr...)
	}
	if rec := create(padded(maxHeaderBody)); rec.Code != http.StatusCreated {
		t.Fatalf("%d-byte header: status %d %s, want 201", maxHeaderBody, rec.Code, rec.Body)
	}
	if rec := create(padded(maxHeaderBody + 1)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte header: status %d %s, want 413", maxHeaderBody+1, rec.Code, rec.Body)
	}
	if rec := create(padded(4 * maxHeaderBody)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte header: status %d %s, want 413", 4*maxHeaderBody, rec.Code, rec.Body)
	}
	if got := srv.Metrics().SessionsCreated.Load(); got != 1 {
		t.Fatalf("%d sessions created, want 1", got)
	}
}

// TestOrderBodyEncodedOnce: /order and /finish answer with the bytes
// json.Encoder produces for the snapshot's OrderResponse, trailing
// newline included, and repeated polls of one snapshot reuse the first
// encoding.
func TestOrderBodyEncodedOnce(t *testing.T) {
	tr, _, opts := aisleTrace(t, 4)
	srv := newTestServer(t, opts)
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if rec := postReads(h, sess.ID, ndjson(t, tr.Reads)); rec.Code != http.StatusOK {
		t.Fatalf("POST: %d %s", rec.Code, rec.Body)
	}
	call := func(method, path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/v1/sessions/"+sess.ID+path, nil))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s %s: %d %q", method, path, rec.Code, rec.Header().Get("Content-Type"))
		}
		return rec.Body.Bytes()
	}
	encoded := func(snap *Snapshot) []byte {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(orderResponse(sess.ID, snap))
		return buf.Bytes()
	}
	first := call(http.MethodGet, "/order?refresh=1")
	snap := sess.Latest()
	if !bytes.Equal(first, encoded(snap)) {
		t.Fatalf("/order body differs from the encoder's:\n%s\n%s", first, encoded(snap))
	}
	if again := call(http.MethodGet, "/order"); !bytes.Equal(again, first) {
		t.Fatal("repeat poll of one snapshot changed the body")
	}
	cached := &snap.wire[0]
	// Concurrent pollers share the one encoding.
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+sess.ID+"/order", nil))
				if !bytes.Equal(rec.Body.Bytes(), first) {
					t.Error("concurrent poll got a different body")
				}
			}
		}()
	}
	wg.Wait()
	if &snap.wire[0] != cached {
		t.Fatal("repeat poll re-encoded the snapshot")
	}
	fin := call(http.MethodPost, "/finish")
	final := sess.Latest()
	if !final.Final || !bytes.Equal(fin, encoded(final)) {
		t.Fatalf("/finish body differs from the encoder's")
	}
	if again := call(http.MethodGet, "/order"); !bytes.Equal(again, fin) {
		t.Fatal("/order after finish differs from the /finish body")
	}
}

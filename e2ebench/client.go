package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// client is one load-generator connection: a transport limited to a
// single keep-alive connection, with every dial counted through
// httptrace so a run that silently reconnects is caught.
type client struct {
	hc    *http.Client
	base  string
	ctx   context.Context
	dials *atomic.Int64
}

func newClient(base string, dials *atomic.Int64) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		ConnectStart: func(string, string) { dials.Add(1) },
	})
	return &client{hc: &http.Client{Transport: tr}, base: base, ctx: ctx, dials: dials}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response, keeping the
// connection reusable.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// doJSON is do expecting a 2xx JSON answer decoded into out.
func (c *client) doJSON(method, path string, body []byte, out any) error {
	code, data, err := c.do(method, path, body)
	if err != nil {
		return err
	}
	if code/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, code, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// recorder collects one client's samples; clients never share one, and
// the orchestrator merges them after the load phase.
type recorder struct {
	ackMs, lagMs, finishMs, lateMs []float64
	scrapeMs, idleWorkers          []float64
	depthMax                       float64
	ackedReads                     int64   // reads acked before the deadline
	sliceReads                     []int64 // reads acked per second of the window
	reads                          int64   // reads acked in total
	orders                         int64   // GET /order answers with a snapshot
	attempted, failed              int64
	sessions, sessionsOK           int
	accX                           map[string]float64 // by input name
	failures                       []string
}

func newRecorder() *recorder { return &recorder{accX: map[string]float64{}} }

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) merge(o *recorder) {
	r.ackMs = append(r.ackMs, o.ackMs...)
	r.lagMs = append(r.lagMs, o.lagMs...)
	r.finishMs = append(r.finishMs, o.finishMs...)
	r.lateMs = append(r.lateMs, o.lateMs...)
	r.scrapeMs = append(r.scrapeMs, o.scrapeMs...)
	r.idleWorkers = append(r.idleWorkers, o.idleWorkers...)
	r.depthMax = max(r.depthMax, o.depthMax)
	r.ackedReads += o.ackedReads
	for i, v := range o.sliceReads {
		for len(r.sliceReads) <= i {
			r.sliceReads = append(r.sliceReads, 0)
		}
		r.sliceReads[i] += v
	}
	r.reads += o.reads
	r.orders += o.orders
	r.attempted += o.attempted
	r.failed += o.failed
	r.sessions += o.sessions
	r.sessionsOK += o.sessionsOK
	for k, v := range o.accX {
		r.accX[k] = v
	}
	for _, f := range o.failures {
		if len(r.failures) < 8 {
			r.failures = append(r.failures, f)
		}
	}
}

// minSlack is the least time before a due send in which an open-loop
// connection still polls.
const minSlack = 2 * time.Millisecond

// pacing describes how a session's POSTs are issued and what else the
// connection does between them.
type pacing struct {
	rate       float64       // reads/s per session; 0 = closed loop
	pollPeriod time.Duration // open loop: GET /order period
	pollEvery  int           // closed loop: GET /order after every N POSTs
	start      time.Time     // start of the measured window
	deadline   time.Time     // end of the measured window
}

// session drives one session on client c: bodies [from, len) of in, then
// /finish, verification against the reference and DELETE. id names an
// existing (recovered) session whose journal already holds bodies
// [0, from); empty creates one.
type session struct {
	c        *client
	rec      *recorder
	in       *input
	p        pacing
	id       string
	from     int
	due      []time.Time // per body: due time (open loop) or send time
	seen     int64       // reads of the newest snapshot seen
	cursor   int64       // /emitted paging cursor
	nextPoll time.Time
	sch      *schedule // the client's open-loop send schedule
}

// schedule is one client's open-loop send clock: sessions follow each
// other on it back to back, so the time a finish, delete and create take
// delays the next sends instead of lowering the offered rate.
type schedule struct {
	start time.Time
	reads int64 // reads scheduled by the client's earlier sessions
}

// scraper scrapes /metrics once a second from a client connection.
type scraper struct {
	c    *client
	rec  *recorder
	next time.Time
}

func (s *scraper) maybe(now time.Time) {
	if now.Before(s.next) {
		return
	}
	s.next = now.Add(time.Second)
	t0 := time.Now()
	s.rec.attempted++
	code, body, err := s.c.do("GET", "/metrics", nil)
	if err != nil || code != http.StatusOK {
		s.rec.fail("GET /metrics: %d %v", code, err)
		return
	}
	s.rec.scrapeMs = append(s.rec.scrapeMs, msSince(t0))
	ps := parseProm(body)
	s.rec.depthMax = max(s.rec.depthMax, ps["stppd_session_queue_depth_reads"])
	s.rec.idleWorkers = append(s.rec.idleWorkers, ps["stppd_sched_idle_workers"])
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func (s *session) run(sc *scraper) {
	r := s.rec
	r.sessions++
	if s.id == "" {
		var cr serve.CreateResponse
		r.attempted++
		if err := s.c.doJSON("POST", "/v1/sessions", s.in.hdrJSON, &cr); err != nil {
			r.fail("%s: create: %v", s.in.name, err)
			return
		}
		s.id = cr.ID
	}
	path := "/v1/sessions/" + s.id
	s.due = make([]time.Time, len(s.in.bodies))
	s.nextPoll = time.Now()
	prior := s.in.before(s.from)
	defer func() { s.sch.reads += s.in.cumEnd[len(s.in.cumEnd)-1] - prior }()
	ok := true
	for k := s.from; k < len(s.in.bodies) && ok; k++ {
		var due time.Time
		if s.p.rate > 0 {
			ahead := float64(s.sch.reads + s.in.before(k) - prior)
			due = s.sch.start.Add(time.Duration(ahead / s.p.rate * float64(time.Second)))
			// Between sends the connection does its read-side work.
			for {
				now := time.Now()
				if !now.Before(due) {
					break
				}
				// Read-side work runs only in the slack before a send is
				// due, and a missed poll is not made up: the generator
				// must not make its own sends late.
				if !now.Before(s.nextPoll) && due.Sub(now) >= minSlack {
					s.nextPoll = now.Add(s.p.pollPeriod)
					if ok = s.poll(path); !ok {
						break
					}
					sc.maybe(time.Now())
					continue
				}
				wake := due
				if s.nextPoll.After(now) && s.nextPoll.Before(wake) {
					wake = s.nextPoll
				}
				time.Sleep(time.Until(wake))
			}
			if !ok {
				break
			}
		}
		sendAt := time.Now()
		if s.p.rate > 0 {
			r.lateMs = append(r.lateMs, float64(sendAt.Sub(due).Nanoseconds())/1e6)
		} else {
			due = sendAt
		}
		s.due[k] = due
		var ing serve.IngestResponse
		r.attempted++
		if err := s.c.doJSON("POST", path+"/reads", s.in.bodies[k], &ing); err != nil {
			r.fail("%s: reads body %d: %v", s.in.name, k, err)
			ok = false
			break
		}
		ack := time.Now()
		r.ackMs = append(r.ackMs, float64(ack.Sub(due).Nanoseconds())/1e6)
		n := s.bodyReads(k)
		if int64(ing.Accepted) != n {
			r.fail("%s: body %d accepted %d of %d reads", s.in.name, k, ing.Accepted, n)
			ok = false
			break
		}
		r.reads += n
		if ack.Before(s.p.deadline) {
			r.ackedReads += n
			i := int(ack.Sub(s.p.start) / time.Second)
			for len(r.sliceReads) <= i {
				r.sliceReads = append(r.sliceReads, 0)
			}
			r.sliceReads[i] += n
		}
		if s.p.rate == 0 {
			if s.p.pollEvery > 0 && (k-s.from+1)%s.p.pollEvery == 0 {
				ok = s.poll(path)
			}
			sc.maybe(ack)
		}
	}
	if ok {
		ok = s.finish(path)
	}
	r.attempted++
	if code, _, err := s.c.do("DELETE", path, nil); err != nil || code != http.StatusNoContent {
		r.fail("%s: delete: %d %v", s.in.name, code, err)
		ok = false
	}
	if ok {
		r.sessionsOK++
	}
}

func (s *session) bodyReads(k int) int64 { return s.in.cumEnd[k] - s.in.before(k) }

// poll GETs the latest published order. A snapshot newer than the last
// one seen yields a publish-lag sample — from the due time of the batch
// holding its last read to now — is checked against the reference
// snapshot at the same read count, and triggers an /emitted page walk.
func (s *session) poll(path string) bool {
	r := s.rec
	r.attempted++
	code, data, err := s.c.do("GET", path+"/order", nil)
	now := time.Now()
	if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
		r.fail("%s: order: %d %v", s.in.name, code, err)
		return false
	}
	if code == http.StatusAccepted {
		return true
	}
	r.orders++
	var o serve.OrderResponse
	if err := json.Unmarshal(data, &o); err != nil {
		r.fail("%s: order: %v", s.in.name, err)
		return false
	}
	if o.Reads <= s.seen {
		return true
	}
	s.seen = o.Reads
	if k := s.in.bodyOf(o.Reads); k >= s.from && !s.due[k].IsZero() {
		r.lagMs = append(r.lagMs, float64(now.Sub(s.due[k]).Nanoseconds())/1e6)
	}
	if want, ok := s.in.ref.snaps[o.Reads]; s.in.ref.snaps != nil {
		if !ok {
			r.fail("%s: snapshot at %d reads is off the reference cadence", s.in.name, o.Reads)
			return false
		}
		if !slices.Equal(o.XOrder, want[0]) || !slices.Equal(o.YOrder, want[1]) {
			r.fail("%s: snapshot at %d reads differs from the reference", s.in.name, o.Reads)
			return false
		}
	}
	return s.pageEmitted(path)
}

// pageEmitted walks /emitted from the cursor to the end of the latest
// snapshot's stream, checking every entry against the reference.
func (s *session) pageEmitted(path string) bool {
	r := s.rec
	for {
		var page serve.EmittedResponse
		r.attempted++
		if err := s.c.doJSON("GET", fmt.Sprintf("%s/emitted?cursor=%d&limit=512", path, s.cursor), nil, &page); err != nil {
			r.fail("%s: emitted: %v", s.in.name, err)
			return false
		}
		for _, e := range page.Entries {
			if e.Seq >= int64(len(s.in.ref.emitted)) || e != s.in.ref.emitted[e.Seq] {
				r.fail("%s: emitted #%d %+v differs from the reference", s.in.name, e.Seq, e)
				return false
			}
		}
		s.cursor = page.NextCursor
		if s.cursor >= page.Total {
			if page.Final && page.Total != int64(len(s.in.ref.emitted)) {
				r.fail("%s: emitted %d tags, reference %d", s.in.name, page.Total, len(s.in.ref.emitted))
				return false
			}
			return true
		}
	}
}

// finish closes the session and holds its final order to the reference.
func (s *session) finish(path string) bool {
	r := s.rec
	var fin serve.OrderResponse
	t0 := time.Now()
	r.attempted++
	if err := s.c.doJSON("POST", path+"/finish", nil, &fin); err != nil {
		r.fail("%s: finish: %v", s.in.name, err)
		return false
	}
	r.finishMs = append(r.finishMs, msSince(t0))
	total := s.in.cumEnd[len(s.in.cumEnd)-1]
	switch {
	case !fin.Final:
		r.fail("%s: finish returned a non-final snapshot", s.in.name)
	case fin.Reads != total:
		r.fail("%s: daemon consumed %d reads, trace has %d", s.in.name, fin.Reads, total)
	case !slices.Equal(fin.XOrder, s.in.ref.x):
		r.fail("%s: final X order differs from the reference replay", s.in.name)
	case !slices.Equal(fin.YOrder, s.in.ref.y):
		r.fail("%s: final Y order differs from the reference replay", s.in.name)
	default:
		if !s.pageEmitted(path) {
			return false
		}
		r.accX[s.in.name] = s.in.ref.accX
		return true
	}
	return false
}

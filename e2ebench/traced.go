package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/deploy"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/wal"
)

// span is one traced call into a layer's public function. CPU is the
// process CPU time that elapsed during the call; it is attributed to the
// call only in phases that drive one call at a time.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
	Reads  int    `json:"reads,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0     time.Time
	next   atomic.Int64
	parent atomic.Int64 // the open phase span
	mu     sync.Mutex
	spans  []span
}

func procCPU() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// call runs fn inside a span under the current phase. Only wall time is
// taken: per-call CPU would cost a syscall per call, which dominates
// sub-microsecond layers. Phases take process CPU.
func (t *tracer) call(name, req string, reads int, fn func()) span {
	return t.record(name, req, t.parent.Load(), reads, false, fn)
}

// callCPU is call plus the process CPU that elapsed during the call; use
// it where one call runs at a time and the callee may fan out across the
// scheduler's workers (snapshots, restores, replays).
func (t *tracer) callCPU(name, req string, reads int, fn func()) span {
	return t.record(name, req, t.parent.Load(), reads, true, fn)
}

// phase runs fn as the parent span of every call made during it and
// returns the phase span, with its process CPU.
func (t *tracer) phase(name string, fn func()) span {
	id := t.next.Add(1)
	prev := t.parent.Swap(id)
	defer t.parent.Store(prev)
	return t.recordID(id, name, name, prev, 0, true, fn)
}

func (t *tracer) record(name, req string, parent int64, reads int, cpu bool, fn func()) span {
	return t.recordID(t.next.Add(1), name, req, parent, reads, cpu, fn)
}

func (t *tracer) recordID(id int64, name, req string, parent int64, reads int, cpu bool, fn func()) span {
	var c0 int64
	if cpu {
		c0 = procCPU()
	}
	s := time.Since(t.t0).Nanoseconds()
	fn()
	sp := span{ID: id, Parent: parent, Name: name, Req: req, Start: s, End: time.Since(t.t0).Nanoseconds(), Reads: reads}
	if cpu {
		sp.CPU = procCPU() - c0
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// by returns the spans with the given name.
func (t *tracer) by(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func wallMs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.End-s.Start) / 1e6
	}
	return out
}

func wallSum(ss []span) float64 {
	t := 0.0
	for _, s := range ss {
		t += float64(s.End - s.Start)
	}
	return t
}

func cpuSum(ss []span) float64 {
	t := 0.0
	for _, s := range ss {
		t += float64(s.CPU)
	}
	return t
}

// layerReport is the traced replay's result: per-layer metrics and the
// CPU each layer of the daemon's ingest path spends per read.
type layerReport struct {
	tr      *tracer
	metrics map[string]metric
	// cpuPerRead is ns per read of each layer the daemon runs for every
	// read; with order encoding they are what the layers explain of the
	// daemon's CPU per read.
	cpuPerRead map[string]float64
	encodeNs   float64 // mean ns per order encode
}

// explainedNsPerRead is Σ of the traced layers' ns per read, with order
// encoding charged at the rate the daemon served orders in its window.
func (l *layerReport) explainedNsPerRead(r *recorder) float64 {
	served := float64(r.orders + int64(len(r.finishMs)))
	return sumMap(l.cpuPerRead) + l.encodeNs*ratio(served, float64(r.reads))
}

// job is one session of the traced replay: the bodies it sends, and for
// restart-recover the recovered session it continues.
type job struct {
	in     *input
	from   int
	walDir string
	id     string
}

// tracedReplay replays the run's inputs in-process, one layer at a time,
// with a span around every call into a layer's public functions.
// Single-threaded calls are timed by wall clock; calls that fan out on
// the scheduler, and the multi-producer WAL and serve phases, by process
// CPU.
func tracedReplay(e *env, ins []*input, rs *restartState) (*layerReport, error) {
	runtime.GC()
	t := &tracer{t0: time.Now()}
	l := &layerReport{tr: t, metrics: map[string]metric{}, cpuPerRead: map[string]float64{}}
	var jobs []job
	if rs != nil {
		image := filepath.Join(e.runDir, "traced-image")
		if err := copyDir(rs.journal, image); err != nil {
			return nil, err
		}
		defer os.RemoveAll(image)
		for _, p := range rs.live {
			jobs = append(jobs, job{in: p.in, from: p.from, walDir: filepath.Join(image, p.id), id: p.id})
		}
	} else {
		for _, in := range ins {
			jobs = append(jobs, job{in: in})
		}
	}
	reads := 0.0
	for _, j := range jobs {
		reads += float64(j.in.cumEnd[len(j.in.cumEnd)-1] - j.in.before(j.from))
	}

	// trace: bufio.Scanner + UnmarshalRead over the exact POST bodies.
	buf := make([]byte, 0, 1<<20)
	decoded := 0
	t.phase("phase.decode", func() {
		for _, j := range jobs {
			for k := j.from; k < len(j.in.bodies); k++ {
				body := j.in.bodies[k]
				t.call("trace.decode", fmt.Sprintf("%s#%d", j.in.name, k), int(j.in.cumEnd[k]-j.in.before(k)), func() {
					sc := bufio.NewScanner(bytes.NewReader(body))
					sc.Buffer(buf, 1<<20)
					for sc.Scan() {
						if _, err := trace.UnmarshalRead(bytes.TrimSpace(sc.Bytes())); err == nil {
							decoded++
						}
					}
				})
			}
		}
	})
	if float64(decoded) != reads {
		return nil, fmt.Errorf("traced decode: %d of %v reads", decoded, reads)
	}
	l.cpuPerRead["trace.decode"] = wallSum(t.by("trace.decode")) / reads
	l.metrics["trace.decode_ns_per_read"] = metric{l.cpuPerRead["trace.decode"], "ns"}

	// profile: Builder.AddBatch per reader, one builder per reader.
	t.phase("phase.profile", func() {
		for _, j := range jobs {
			bs := map[int]*profile.Builder{}
			for bi, b := range j.in.batches(j.from, len(j.in.bodies)) {
				t.call("profile.add_batch", fmt.Sprintf("%s@%d", j.in.name, bi), len(b), func() {
					for i := 0; i < len(b); {
						k := i + 1
						for k < len(b) && b[k].Reader == b[i].Reader {
							k++
						}
						pb := bs[b[i].Reader]
						if pb == nil {
							pb = profile.NewBuilder()
							bs[b[i].Reader] = pb
						}
						pb.AddBatch(b[i:k])
						i = k
					}
				})
			}
		}
	})
	l.metrics["profile.add_ns_per_read"] = metric{wallSum(t.by("profile.add_batch")) / reads, "ns"}

	if e.cfg.durable {
		cpu, err := walAppends(e, t, jobs)
		if err != nil {
			return nil, err
		}
		l.cpuPerRead["wal"] = cpu / reads
		l.metrics["wal.append_us_per_batch"] = metric{1e3 * mean(wallMs(t.by("wal.append"))), "us"}
		l.metrics["wal.fsync_wait_us_per_batch"] = metric{1e3 * mean(wallMs(t.by("wal.fsync_wait"))), "us"}
	}

	var err error
	t.phase("phase.deploy", func() { err = deployReplay(e, t, l, jobs, reads) })
	if err != nil {
		return nil, err
	}

	// serve: the daemon core without HTTP — Enqueue … Finish on a
	// serve.Server with the daemon's options (restart-recover boots it on
	// another copy of the journal, which is the in-process restart).
	ph := t.phase("phase.serve", func() { err = serveInProc(e, t, jobs, rs) })
	if err != nil {
		return nil, err
	}
	boot := cpuSum(t.by("serve.new"))
	l.metrics["serve.inproc_ns_per_read"] = metric{(float64(ph.CPU) - boot) / reads, "ns"}
	return l, nil
}

// walAppends journals every job's batches with AppendBatchAsync +
// WaitDurable, one goroutine per client as in the daemon run so group
// commit coalesces the same way, and returns the process CPU it took.
func walAppends(e *env, t *tracer, jobs []job) (float64, error) {
	pol, err := wal.ParsePolicy(e.cfg.fsync)
	if err != nil {
		return 0, err
	}
	fw, _ := time.ParseDuration(e.cfg.flushWindow)
	opts := wal.Options{Fsync: pol, FlushWindow: fw}
	root := filepath.Join(e.runDir, "traced-wal")
	defer os.RemoveAll(root)
	errs := make([]error, clients)
	ph := t.phase("phase.wal", func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for ji := c; ji < len(jobs); ji += clients {
					j := jobs[ji]
					lg, err := wal.Create(filepath.Join(root, fmt.Sprint(ji)), j.in.header, opts)
					if err != nil {
						errs[c] = err
						return
					}
					for bi, b := range j.in.batches(j.from, len(j.in.bodies)) {
						req := fmt.Sprintf("%s@%d", j.in.name, bi)
						var seq int64
						t.call("wal.append", req, len(b), func() { seq, err = lg.AppendBatchAsync(b) })
						if err == nil {
							t.call("wal.fsync_wait", req, len(b), func() { err = lg.WaitDurable(seq) })
						}
						if err != nil {
							errs[c] = err
							return
						}
					}
					lg.Close()
				}
			}(c)
		}
		wg.Wait()
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(ph.CPU), nil
}

// deployReplay is the cadence-matched engine replay of every job, with
// order encoding after every snapshot and engine checkpoints at the
// daemon's cadence. restart-recover jobs first recover their log,
// restore its checkpoint and replay the suffix, as the daemon boots.
func deployReplay(e *env, t *tracer, l *layerReport, jobs []job, reads float64) error {
	var replayed float64
	var emitted, discarded, late int64
	resident := 0
	var selfCPU []float64
	loadCkptCPU := 0.0 // checkpoints the daemon also takes in its window
	for _, j := range jobs {
		se, err := deploy.NewSharded(deploy.FromHeader(j.in.header, baseConfig(), false, false),
			deploy.Options{Finalize: e.cfg.policy()})
		if err != nil {
			return err
		}
		since, sinceCkpt := 0, 0
		var total int64
		snapshot := func(req string) error {
			var res *deploy.GlobalResult
			var err error
			t.callCPU("deploy.snapshot", req, 0, func() { res, err = se.Snapshot() })
			if err != nil {
				return err
			}
			t.call("serve.order_encode", req, 0, func() { _, err = json.Marshal(orderJSON(j.in.name, total, res)) })
			return err
		}
		if j.walDir != "" {
			var rec *wal.Recovered
			var lg *wal.Log
			t.callCPU("wal.recover", j.id, 0, func() { rec, lg, err = wal.Recover(j.walDir, wal.Options{}) })
			if err != nil {
				return err
			}
			if lg != nil {
				lg.Close()
			}
			if rec.Checkpoint != nil {
				t.callCPU("deploy.restore", j.id, int(rec.CheckpointReads), func() { err = se.Restore(rec.Checkpoint) })
				if err != nil {
					return err
				}
			}
			total = rec.CheckpointReads
			t.callCPU("deploy.replay", j.id, rec.Reads, func() {
				for _, b := range rec.Batches {
					if err = se.Consume(b); err != nil {
						return
					}
					total += int64(len(b))
					if since += len(b); e.cfg.publish > 0 && since >= e.cfg.publish {
						since = 0
						se.Snapshot()
					}
				}
			})
			if err != nil {
				return err
			}
			replayed += float64(rec.Reads)
			// The resumed suffix is too short to reach the next checkpoint,
			// so checkpoint the recovered state once: it is the state the
			// journal's checkpoint record holds.
			var blob []byte
			t.callCPU("deploy.checkpoint", j.id, 0, func() { blob = se.Checkpoint(nil) })
			l.metrics["deploy.checkpoint_bytes"] = metric{float64(len(blob)), "B"}
		}
		for bi, b := range j.in.batches(j.from, len(j.in.bodies)) {
			req := fmt.Sprintf("%s@%d", j.in.name, bi)
			t.call("deploy.consume", req, len(b), func() { err = se.Consume(b) })
			if err != nil {
				return err
			}
			total += int64(len(b))
			resident = max(resident, se.Tags())
			if since += len(b); e.cfg.publish > 0 && since >= e.cfg.publish {
				since = 0
				snapshot(req) // a snapshot with no tags yet is not published
			}
			if ce := e.cfg.checkpointEvery; e.cfg.durable && ce > 0 {
				if sinceCkpt += len(b); sinceCkpt >= ce {
					sinceCkpt = 0
					var blob []byte
					sp := t.callCPU("deploy.checkpoint", req, 0, func() { blob = se.Checkpoint(nil) })
					loadCkptCPU += float64(sp.CPU)
					l.metrics["deploy.checkpoint_bytes"] = metric{float64(len(blob)), "B"}
				}
			}
		}
		if err := snapshot(j.in.name + "/final"); err != nil {
			return err
		}
		emitted += int64(se.Finalized())
		discarded += se.Discarded()
		late += se.LateReads()
		se.Close()

		// pipeline: each shard's Engine.Snapshot on its own, at the same
		// publish points, to split detection from deploy's assembly,
		// stitch and sweep. Only without the lifecycle, where shard
		// engines run standalone exactly as inside deploy.
		if j.walDir == "" && !e.cfg.policy().Enabled() {
			c, err := shardSnapshots(t, j, e.cfg.publish)
			if err != nil {
				return err
			}
			selfCPU = append(selfCPU, c...)
		}
	}
	snaps, cons, ck := t.by("deploy.snapshot"), t.by("deploy.consume"), t.by("deploy.checkpoint")
	sm := wallMs(snaps)
	l.metrics["deploy.consume_ns_per_read"] = metric{wallSum(cons) / reads, "ns"}
	l.metrics["deploy.snapshot_ms_p50"] = metric{quantile(sm, 0.5), "ms"}
	l.metrics["deploy.snapshot_ms_p90"] = metric{quantile(sm, 0.9), "ms"}
	l.metrics["deploy.tags_resident_max"] = metric{float64(resident), "count"}
	l.metrics["deploy.emitted"] = metric{float64(emitted), "count"}
	l.metrics["deploy.discarded"] = metric{float64(discarded), "count"}
	l.metrics["deploy.late_reads"] = metric{float64(late), "count"}
	l.cpuPerRead["deploy"] = (wallSum(cons) + cpuSum(snaps) + loadCkptCPU) / reads
	enc := t.by("serve.order_encode")
	l.metrics["serve.order_encode_us"] = metric{1e3 * median(wallMs(enc)), "us"}
	l.encodeNs = wallSum(enc) / float64(len(enc))
	if len(ck) > 0 {
		l.metrics["deploy.checkpoint_ms"] = metric{mean(wallMs(ck)), "ms"}
	}
	if ps := t.by("pipeline.snapshot"); len(ps) > 0 {
		l.metrics["pipeline.snapshot_ms_p50"] = metric{median(wallMs(ps)), "ms"}
		l.metrics["deploy.snapshot_self_ms"] = metric{mean(selfCPU) / 1e6, "ms"}
	}
	if replayed > 0 {
		l.metrics["wal.recover_ms"] = metric{sumMs(t.by("wal.recover")), "ms"}
		l.metrics["deploy.restore_ms"] = metric{sumMs(t.by("deploy.restore")), "ms"}
		l.metrics["deploy.replay_ns_per_read"] = metric{cpuSum(t.by("deploy.replay")) / replayed, "ns"}
	}
	return nil
}

func sumMs(ss []span) float64 {
	t := 0.0
	for _, v := range wallMs(ss) {
		t += v
	}
	return t
}

// orderJSON builds the wire answer GET /order serves for a snapshot.
func orderJSON(id string, reads int64, res *deploy.GlobalResult) serve.OrderResponse {
	resp := serve.OrderResponse{
		SessionID:   id,
		Reads:       reads,
		Tags:        len(res.XOrder),
		XOrder:      trace.EncodeEPCs(res.XOrder),
		YOrder:      trace.EncodeEPCs(res.YOrder),
		XConfidence: res.XConfidence,
	}
	for _, sh := range res.Shards {
		so := serve.ShardOrder{ReaderID: sh.ReaderID}
		if sh.Result != nil {
			so.Tags = len(sh.Result.Tags)
			so.XOrder = trace.EncodeEPCs(sh.Result.XOrderEPCs())
			so.YOrder = trace.EncodeEPCs(sh.Result.YOrderEPCs())
		}
		resp.Shards = append(resp.Shards, so)
	}
	return resp
}

// shardSnapshots replays one job through standalone per-reader
// pipeline.Engines, snapshotting every shard that gained reads at each
// publish point, and returns deploy's own CPU per snapshot point: the
// deploy.snapshot span's CPU minus its shards' pipeline.snapshot CPU.
func shardSnapshots(t *tracer, j job, publish int) ([]float64, error) {
	d := deploy.FromHeader(j.in.header, baseConfig(), false, false)
	engs := map[int]*pipeline.Engine{}
	for _, spec := range d.Readers {
		eng, err := pipeline.New(spec.Config, pipeline.Options{})
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		engs[spec.ID] = eng
	}
	deploySnaps := map[string]span{}
	for _, s := range t.by("deploy.snapshot") {
		if strings.HasPrefix(s.Req, j.in.name+"@") || s.Req == j.in.name+"/final" {
			deploySnaps[s.Req] = s
		}
	}
	dirty := map[int]bool{}
	since := 0
	var self []float64
	point := func(req string) {
		c := 0.0
		for id, eng := range engs {
			if dirty[id] && eng.Tags() > 0 {
				c += float64(t.callCPU("pipeline.snapshot", req, 0, func() { eng.Snapshot() }).CPU)
			}
		}
		clear(dirty)
		if ds, ok := deploySnaps[req]; ok {
			self = append(self, float64(ds.CPU)-c)
		}
	}
	batches := j.in.batches(0, len(j.in.bodies))
	for bi, b := range batches {
		for i := 0; i < len(b); {
			k := i + 1
			for k < len(b) && b[k].Reader == b[i].Reader {
				k++
			}
			engs[b[i].Reader].Consume(b[i:k])
			dirty[b[i].Reader] = true
			i = k
		}
		if since += len(b); publish > 0 && since >= publish {
			since = 0
			point(fmt.Sprintf("%s@%d", j.in.name, bi))
		}
	}
	point(j.in.name + "/final")
	return self, nil
}

// serveInProc drives serve.Server directly — CreateSession, Enqueue per
// queued batch, Finish, DropSession — on one goroutine per client.
func serveInProc(e *env, t *tracer, jobs []job, rs *restartState) error {
	pol, err := wal.ParsePolicy(e.cfg.fsync)
	if err != nil && e.cfg.durable {
		return err
	}
	fw, _ := time.ParseDuration(e.cfg.flushWindow)
	opts := serve.Options{
		Config:          baseConfig(),
		PublishEvery:    e.cfg.publish,
		Fsync:           pol,
		FlushWindow:     fw,
		CheckpointEvery: e.cfg.checkpointEvery,
		FinalizeAfter:   e.cfg.finalizeAfter,
		FinalizeMargin:  e.cfg.finalizeMargin,
	}
	if e.cfg.durable {
		opts.DataDir = filepath.Join(e.runDir, "traced-serve")
		defer os.RemoveAll(opts.DataDir)
		if rs != nil {
			if err := copyDir(rs.journal, opts.DataDir); err != nil {
				return err
			}
		}
	}
	var srv *serve.Server
	t.callCPU("serve.new", "boot", 0, func() { srv, err = serve.New(opts) })
	if err != nil {
		return err
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ji := c; ji < len(jobs) && errs[c] == nil; ji += clients {
				errs[c] = serveJob(t, srv, jobs[ji])
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func serveJob(t *tracer, srv *serve.Server, j job) error {
	var sess *serve.Session
	var err error
	if j.id != "" {
		var ok bool
		if sess, ok = srv.Session(j.id); !ok {
			return fmt.Errorf("serve: recovered session %s missing", j.id)
		}
	} else {
		t.call("serve.create", j.in.name, 0, func() { sess, err = srv.CreateSession(j.in.header) })
		if err != nil {
			return err
		}
	}
	for bi, b := range j.in.batches(j.from, len(j.in.bodies)) {
		t.call("serve.enqueue", fmt.Sprintf("%s@%d", j.in.name, bi), len(b), func() { err = sess.Enqueue(b) })
		if err != nil {
			return err
		}
	}
	t.call("serve.finish", j.in.name, 0, func() { _, err = sess.Finish() })
	if err != nil {
		return err
	}
	t.call("serve.drop", j.in.name, 0, func() { srv.DropSession(sess.ID) })
	return nil
}

// write saves the spans (JSON lines) and the per-layer table: each
// layer's ns per read against the daemon's CPU per read, and the
// residual no layer explains.
func (l *layerReport) write(e *env, layers map[string]metric, daemonNs, explained float64) {
	dir := filepath.Join(e.outDir, "e2ebench")
	os.MkdirAll(dir, 0o755)
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", e.workload, e.seed))
	var sb bytes.Buffer
	enc := json.NewEncoder(&sb)
	sort.Slice(l.tr.spans, func(a, b int) bool { return l.tr.spans[a].Start < l.tr.spans[b].Start })
	for _, s := range l.tr.spans {
		enc.Encode(s)
	}
	if err := os.WriteFile(stem+".spans.jsonl", sb.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: spans:", err)
	}
	var tb strings.Builder
	row := func(name string, ns float64) {
		fmt.Fprintf(&tb, "%-36s %12.0f  %5.1f%%\n", name, ns, 100*ns/daemonNs)
	}
	fmt.Fprintf(&tb, "# %s seed %d\n%-36s %12s  %s\n", e.workload, e.seed, "layer", "ns/read", "of daemon CPU")
	keys := make([]string, 0, len(l.cpuPerRead))
	for k := range l.cpuPerRead {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		row(k, l.cpuPerRead[k])
	}
	row("order encode (served orders)", explained-sumMap(l.cpuPerRead))
	row("residual (HTTP, net/http, sched)", daemonNs-explained)
	row("daemon CPU over the load window", daemonNs)
	fmt.Fprintf(&tb, "\n%-36s %12s  %s\n", "metric", "value", "unit")
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&tb, "%-36s %12.6g  %s\n", n, layers[n].Value, layers[n].Unit)
	}
	if err := os.WriteFile(stem+".layers.txt", []byte(tb.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: layers:", err)
	}
	fmt.Fprint(os.Stderr, tb.String())
}

func sumMap(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

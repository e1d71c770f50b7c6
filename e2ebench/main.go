// Command e2ebench is stppd's end-to-end benchmark. It starts the stppd
// binary built from this tree as a child process on loopback and drives
// it over HTTP with pre-encoded NDJSON bodies from a generator that uses
// one keep-alive connection per client goroutine. Every session's final
// order (and emitted stream) is checked against a cadence-matched offline
// deploy.ShardedEngine replay of the same reads.
//
// With -trace 1 the same daemon run is followed by an in-process replay
// of the same inputs through each layer's public functions, one span per
// call, which yields the per-layer table and the residual no layer
// explains. Spans and the table are written under the output directory.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, after run.sh has built both binaries):
//
//	e2ebench -workload aisle-durable -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// clients is the generator's goroutine count: one keep-alive connection
// each, at most the 2 cores the benchmark host has.
const clients = 2

type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	stppd    string
	runDir   string
	outDir   string
	cfg      daemonCfg
	rate     float64 // offered reads/s per session; 0 = closed loop
}

// pacing is how this run's sessions issue POSTs and poll /order.
func (e *env) pacing() pacing {
	return pacing{rate: e.rate, pollPeriod: pollPeriod, pollEvery: closedPollEvery}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload's daemon phase measured.
type outcome struct {
	rec      *recorder
	loadS    float64   // measured window, seconds
	cpuS     float64   // daemon CPU over the measured window
	cpuSlice []float64 // daemon CPU per second of a fixed window
	boots    []float64 // exec → ready, seconds, per boot
	rssMB    []float64 // VmHWM per daemon that carried load
	delta    promSample
	dials    int64
	maxDials int64 // one connection per client per daemon
	// in-process replay, when tracing
	layers *layerReport
}

func main() {
	var (
		workload = flag.String("workload", "", "aisle-durable | portals-live | restart-recover")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		traceOn  = flag.Int("trace", 0, "1 = also replay in-process with per-layer spans")
		outDir   = flag.String("out", "", "output directory (default $CARGO_TARGET_DIR or .bench_build)")
		publish  = flag.Int("publish", -1, "override the workload's stppd -publish")
		ckptN    = flag.Int("checkpoint-every", -1, "override the workload's stppd -checkpoint-every")
		rate     = flag.Float64("rate", -1, "override the workload's offered reads/s per session (0 = closed loop)")
	)
	flag.Parse()
	out := *outDir
	if out == "" {
		out = os.Getenv("CARGO_TARGET_DIR")
	}
	if out == "" {
		out = ".bench_build"
	}
	e := &env{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceOn == 1, outDir: out,
		stppd: filepath.Join(out, "bin", "stppd")}
	w, ok := workloads[e.workload]
	if !ok {
		fatal(fmt.Errorf("unknown -workload %q", e.workload))
	}
	e.cfg, e.rate = w.cfg, w.rate
	if *rate >= 0 {
		e.rate = *rate
	}
	if *publish >= 0 {
		e.cfg.publish = *publish
	}
	if *ckptN >= 0 {
		e.cfg.checkpointEvery = *ckptN
	}
	if _, err := os.Stat(e.stppd); err != nil {
		fatal(fmt.Errorf("stppd binary: %w", err))
	}
	e.runDir = filepath.Join(out, "e2ebench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		fatal(err)
	}
	o, err := w.run(e)
	os.RemoveAll(e.runDir)
	if err != nil {
		fatal(err)
	}
	report(e, o)
}

type workloadDef struct {
	cfg  daemonCfg
	rate float64
	run  func(e *env) (*outcome, error)
}

var workloads = map[string]workloadDef{
	"aisle-durable": {
		cfg:  daemonCfg{durable: true, fsync: "always", flushWindow: "100us", publish: 2000, checkpointEvery: 100000},
		rate: aisleRate,
		run:  runAisle,
	},
	"portals-live": {
		cfg:  daemonCfg{publish: 500, checkpointEvery: 100000, finalizeAfter: 2, finalizeMargin: 1},
		rate: portalsRate,
		run:  runPortals,
	},
	"restart-recover": {
		cfg:  daemonCfg{durable: true, fsync: "always", flushWindow: "100us", publish: 2000, checkpointEvery: 100000},
		rate: restartRate,
		run:  runRestart,
	},
}

// Workload shapes. The *Rate constants are offered reads/s per session:
// about 40–50 % of the closed-loop capacity of the same traffic on the
// 2-vCPU benchmark host (-rate 0 measures it), so the daemon keeps up and
// a slower build shows as CPU per read rather than as an unsteady backlog.
const (
	aisleInputs = 8   // distinct aisle traces, session i uses seed+i mod 8
	aisleTags   = 64  // ≈21k reads per session
	aislePost   = 256 // reads per POST
	aisleRate   = 30000

	portalsBags  = 120 // ≈52k reads per belt
	portalsBelts = 4
	portalsPost  = 64
	portalsRate  = 17500

	// Open-loop sessions poll GET /order every pollPeriod between sends;
	// closed-loop ones after every closedPollEvery-th POST.
	pollPeriod      = 25 * time.Millisecond
	closedPollEvery = 2

	bootsPerRun = 21 // daemon boots per run for the setup_s median
)

func runAisle(e *env) (*outcome, error) {
	return steadyRun(e, aisleInputs, aislePost, func(seed int64) (*scenario.MultiScene, error) {
		return aisleScene(aisleTags, seed)
	})
}

func runPortals(e *env) (*outcome, error) {
	return steadyRun(e, portalsBelts, portalsPost, func(seed int64) (*scenario.MultiScene, error) {
		return portalsScene(portalsBags, seed)
	})
}

// steadyRun generates n inputs (seeds seed … seed+n-1) of post-read
// bodies, boots the daemon bootsPerRun times (setup_s), keeps the last
// boot, and drives it for e.seconds: each client runs back-to-back
// sessions, client c taking inputs c, c+clients, … in turn.
func steadyRun(e *env, n, post int, scene func(seed int64) (*scenario.MultiScene, error)) (*outcome, error) {
	ins, err := buildInputs(n, e.cfg, true, func(i int) (*input, error) {
		seed := e.seed + int64(i)
		ms, err := scene(seed)
		if err != nil {
			return nil, err
		}
		return newInput(fmt.Sprintf("%s-%d", ms.Name, seed), ms, seed, post)
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{rec: newRecorder(), delta: promSample{}}
	var d *daemon
	for b := 0; b < bootsPerRun; b++ {
		if d != nil {
			d.kill()
		}
		dataDir := filepath.Join(e.runDir, fmt.Sprintf("data-%d", b))
		d, err = startDaemon(e.stppd, filepath.Join(e.runDir, "stppd.log"), e.cfg.args(dataDir))
		if err != nil {
			return nil, err
		}
		o.boots = append(o.boots, d.bootS)
	}
	window := time.Duration(e.seconds * float64(time.Second))
	err = loadPhase(d, o, e.pacing(), window, func(c int, cl *client, rec *recorder, sc *scraper, p pacing) {
		sch := &schedule{start: p.start}
		for j := 0; time.Now().Before(p.deadline); j++ {
			s := &session{c: cl, rec: rec, in: ins[(c+clients*j)%len(ins)], p: p, sch: sch}
			s.run(sc)
		}
	})
	d.kill()
	if err != nil {
		return nil, err
	}
	if e.trace {
		o.layers, err = tracedReplay(e, ins, nil)
	}
	return o, err
}

// loadPhase runs one measured window against d: clients goroutines run
// drive, while this goroutine samples daemon CPU and /metrics at the
// window's start and end.
//
// With window > 0 the measured window is that long and sessions still in
// flight at its end run to completion unmeasured; with window 0 it lasts
// until every client is done.
func loadPhase(d *daemon, o *outcome, p pacing, window time.Duration,
	drive func(c int, cl *client, rec *recorder, sc *scraper, p pacing)) error {
	var dials atomic.Int64
	probeDials := atomic.Int64{}
	probe := newClient(d.base, &probeDials)
	defer probe.close()
	scrape := func() (promSample, error) {
		code, body, err := probe.do("GET", "/metrics", nil)
		if err != nil || code != 200 {
			return nil, fmt.Errorf("scrape /metrics: %d %v", code, err)
		}
		return parseProm(body), nil
	}
	before, err := scrape()
	if err != nil {
		return err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	t0 := time.Now()
	p.start, p.deadline = t0, t0.Add(window)
	if window == 0 {
		p.deadline = t0.Add(24 * time.Hour)
	}
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		recs[c] = newRecorder()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(d.base, &dials)
			defer cl.close()
			drive(c, cl, recs[c], &scraper{c: cl, rec: recs[c]}, p)
		}(c)
	}
	end := p.deadline
	if window > 0 {
		// Sample the daemon's CPU every second so CPU per read can be
		// taken per second and its median reported: a second in which a
		// neighbour or a GC cycle inflates the cost does not move it.
		prev := cpu0
		for at := t0.Add(time.Second); !at.After(end); at = at.Add(time.Second) {
			time.Sleep(time.Until(at))
			c, err := d.cpuSeconds()
			if err != nil {
				return err
			}
			o.cpuSlice = append(o.cpuSlice, c-prev)
			prev = c
		}
		time.Sleep(time.Until(end))
	} else {
		wg.Wait()
		end = time.Now()
	}
	cpu1, cerr := d.cpuSeconds()
	after, serr := scrape()
	wg.Wait()
	if cerr != nil {
		return cerr
	}
	if serr != nil {
		return serr
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	for k, v := range after {
		o.delta[k] += v - before[k]
	}
	for _, r := range recs {
		o.rec.merge(r)
	}
	o.loadS += end.Sub(t0).Seconds()
	o.cpuS += cpu1 - cpu0
	o.rssMB = append(o.rssMB, rss)
	o.dials += dials.Load()
	o.maxDials += clients
	return nil
}

// report prints the per-run summary to stderr and the result line to
// stdout.
func report(e *env, o *outcome) {
	r := o.rec
	failed := r.failed
	var problems []string
	if o.dials > o.maxDials {
		failed++
		problems = append(problems, fmt.Sprintf("generator dialed %d connections, at most %d allowed", o.dials, o.maxDials))
	}
	if r.sessionsOK == 0 {
		failed++
		problems = append(problems, "no session completed")
	}
	var accs []float64
	for _, a := range r.accX {
		accs = append(accs, a)
	}
	e2e := map[string]metric{
		"reads_per_s":            {float64(r.ackedReads) / o.loadS, "1/s"},
		"setup_s":                {median(o.boots), "s"},
		"daemon_cpu_s_per_mread": {cpuPerMread(o), "s"},
		"peak_rss_mb":            {median(o.rssMB), "MiB"},
		"x_accuracy":             {mean(accs), "ratio"},
	}
	// The client-side HTTP latencies are end to end too, but on a 2-vCPU
	// VM their run-to-run spread is far wider than any usable bound, so
	// they are reported beside the layers, ungated.
	httpLat := map[string]metric{
		"http.ack_ms_p50":         {quantile(r.ackMs, 0.50), "ms"},
		"http.ack_ms_p99":         {quantile(r.ackMs, 0.99), "ms"},
		"http.publish_lag_ms_p50": {quantile(r.lagMs, 0.50), "ms"},
		"http.publish_lag_ms_p90": {quantile(r.lagMs, 0.90), "ms"},
		"http.finish_ms_p50":      {quantile(r.finishMs, 0.50), "ms"},
		"http.finish_ms_p90":      {quantile(r.finishMs, 0.90), "ms"},
	}
	attempted := r.attempted + 1 // the dial check
	errRatio := float64(failed) / float64(attempted)
	fmt.Fprintf(os.Stderr, "e2ebench %s seed=%d: %d/%d sessions OK, %d reads (%d in window), %d ops, %d failed, error_ratio=%g, dials=%d\n",
		e.workload, e.seed, r.sessionsOK, r.sessions, r.reads, r.ackedReads, attempted, failed, errRatio, o.dials)
	fmt.Fprintf(os.Stderr, "  reads per second of the window: %v\n", r.sliceReads)
	for _, f := range append(problems, r.failures...) {
		fmt.Fprintln(os.Stderr, "  FAIL:", f)
	}
	printMetrics("end-to-end", e2e)
	layers := daemonLayers(e, o)
	for k, v := range httpLat {
		layers[k] = v
	}
	if o.layers != nil {
		for k, v := range o.layers.metrics {
			layers[k] = v
		}
		daemonNs := o.cpuS / float64(r.ackedReads) * 1e9
		explained := o.layers.explainedNsPerRead(r)
		layers["residual_cpu_ns_per_read"] = metric{daemonNs - explained, "ns"}
		o.layers.write(e, layers, daemonNs, explained)
	}
	printMetrics("per-layer", layers)

	var ms map[string]metric
	if e.trace {
		ms = pick(layers, perLayerNames)
	} else {
		ms = pick(e2e, endToEndNames)
	}
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			failed++
			fmt.Fprintf(os.Stderr, "  FAIL: metric %s has no samples\n", name)
			ms[name] = metric{0, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, ms})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// cpuPerMread is daemon CPU seconds per million acked reads: the median
// over the window's seconds when the window has a fixed length, the
// whole-window ratio otherwise.
func cpuPerMread(o *outcome) float64 {
	var per []float64
	for i, c := range o.cpuSlice {
		if i < len(o.rec.sliceReads) && o.rec.sliceReads[i] > 0 {
			per = append(per, c/float64(o.rec.sliceReads[i])*1e6)
		}
	}
	if len(per) == 0 {
		return o.cpuS / (float64(o.rec.ackedReads) / 1e6)
	}
	return median(per)
}

// endToEndNames are the gated metrics: steady enough on the benchmark
// host to hold a bound (see e2ebench/README.md).
var endToEndNames = []string{"reads_per_s", "setup_s", "daemon_cpu_s_per_mread", "peak_rss_mb", "x_accuracy"}

var perLayerNames = []string{
	"http.ack_ms_p50", "http.ack_ms_p99", "http.publish_lag_ms_p50", "http.publish_lag_ms_p90",
	"http.finish_ms_p50", "http.finish_ms_p90",
	"trace.decode_ns_per_read", "profile.add_ns_per_read", "deploy.consume_ns_per_read",
	"deploy.snapshot_ms_p50", "deploy.snapshot_ms_p90", "deploy.tags_resident_max",
	"deploy.emitted", "deploy.discarded", "deploy.late_reads",
	"serve.inproc_ns_per_read", "serve.order_encode_us", "serve.snapshot_ms_mean", "serve.snapshots",
	"serve.queue_depth_reads_max", "wal.batches_per_fsync", "wal.bytes_per_read",
	"sched.steals_per_s", "sched.idle_workers_mean", "metrics.scrape_ms",
	"residual_cpu_ns_per_read", "loadgen.late_ms_p99", "loadgen.dials",
}

func pick(all map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			m = metric{math.NaN(), ""}
		}
		out[n] = m
	}
	return out
}

// daemonLayers derives the per-layer counters the daemon itself exports:
// the /metrics deltas over the measured window and the generator's own
// probes.
func daemonLayers(e *env, o *outcome) map[string]metric {
	d, r := o.delta, o.rec
	reads := d["stppd_reads_ingested_total"]
	return map[string]metric{
		"wal.batches_per_fsync":       {ratio(d["stppd_wal_appends_total"], d["stppd_wal_fsyncs_total"]), "count"},
		"wal.bytes_per_read":          {ratio(d["stppd_wal_bytes_total"], reads), "B"},
		"serve.snapshot_ms_mean":      {1e3 * ratio(d["stppd_snapshot_latency_seconds_sum"], d["stppd_snapshot_latency_seconds_count"]), "ms"},
		"serve.snapshots":             {d["stppd_snapshots_total"], "count"},
		"serve.stall_s_per_s":         {d["stppd_ingest_stall_seconds_total"] / o.loadS, "s/s"},
		"serve.queue_depth_reads_max": {r.depthMax, "count"},
		"sched.steals_per_s":          {d["stppd_sched_steals_total"] / o.loadS, "1/s"},
		"sched.idle_workers_mean":     {mean(r.idleWorkers), "count"},
		"metrics.scrape_ms":           {median(r.scrapeMs), "ms"},
		"loadgen.late_ms_p99":         {quantile(r.lateMs, 0.99), "ms"},
		"loadgen.dials":               {float64(o.dials), "count"},
	}
}

func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "  %s:\n", title)
	for _, n := range names {
		fmt.Fprintf(&b, "    %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	fmt.Fprint(os.Stderr, b.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

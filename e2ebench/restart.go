package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// restart-recover shape: live sessions paused past their first engine
// checkpoint (stppd's default -checkpoint-every is 100000 reads) over
// long aisle traces, plus short sessions journaled as finished. Each live
// session holds ≈110k reads in ≈140 MiB of daemon memory, which bounds
// how many the benchmark host can afford.
const (
	restartLive = 4   // each on its own trace
	restartTags = 480 // ≈123k reads per trace
	// restartFinished short sessions come back final at every boot. They
	// also widen x_accuracy's average: Equation 2 swings by up to 0.2 on
	// a single 480-tag trace.
	restartFinished = 10
	restartMinBoots = 3
	restartRate     = 30000
	// restartRemain is the POST bodies each live session sends after the
	// restart: equal for all, so both clients carry the same load.
	restartRemain = 64
)

// paused is a live session in the journal: the reads of bodies [0, from)
// are journaled, the rest are sent after the restart.
type paused struct {
	id   string
	in   *input
	from int
}

// restartState is the journal a restart-recover run boots from.
type restartState struct {
	journal  string
	live     []paused
	finished []paused
}

func runRestart(e *env) (*outcome, error) {
	ins, err := buildInputs(restartLive+restartFinished, e.cfg, false, func(i int) (*input, error) {
		tags := restartTags
		if i >= restartLive {
			tags = aisleTags
		}
		s := e.seed + int64(i)
		ms, err := aisleScene(tags, s)
		if err != nil {
			return nil, err
		}
		return newInput(fmt.Sprintf("aisle%d-%d", tags, s), ms, s, aislePost)
	})
	if err != nil {
		return nil, err
	}
	st, err := journal(e, ins)
	if err != nil {
		return nil, err
	}
	o := &outcome{rec: newRecorder(), delta: promSample{}}
	start := time.Now()
	for b := 0; b < restartMinBoots || time.Since(start).Seconds() < e.seconds; b++ {
		if err := bootAndResume(e, st, o, b); err != nil {
			return nil, err
		}
	}
	if e.trace {
		o.layers, err = tracedReplay(e, nil, st)
	}
	return o, err
}

// journal builds the crash image: a durable daemon ingests the paused
// live sessions and the finished ones, drains, and is SIGKILLed. It runs
// with -fsync never to keep set-up short; the log format is the same.
func journal(e *env, ins []*input) (*restartState, error) {
	st := &restartState{journal: filepath.Join(e.runDir, "journal")}
	jcfg := e.cfg
	jcfg.fsync, jcfg.flushWindow = "never", ""
	d, err := startDaemon(e.stppd, filepath.Join(e.runDir, "journal.log"), jcfg.args(st.journal))
	if err != nil {
		return nil, err
	}
	defer d.kill()
	for _, in := range ins[:restartLive] {
		st.live = append(st.live, paused{in: in, from: len(in.bodies) - restartRemain})
	}
	for _, in := range ins[restartLive:] {
		st.finished = append(st.finished, paused{in: in, from: len(in.bodies)})
	}
	all := append(append([]paused(nil), st.live...), st.finished...)
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	var dials atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(d.base, &dials)
			defer cl.close()
			for i := c; i < len(all); i += clients {
				all[i].id, errs[i] = ingest(cl, all[i], i >= restartLive)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	copy(st.live, all[:restartLive])
	copy(st.finished, all[restartLive:])
	// Kill only once every acked batch is consumed and every due
	// checkpoint is journaled, so the crash image is the same every run.
	want := int64(0)
	if ce := int64(e.cfg.checkpointEvery); ce > 0 {
		for _, p := range st.live {
			want += p.in.cumEnd[p.from-1] / ce
		}
	}
	probe := newClient(d.base, &dials)
	defer probe.close()
	for t0 := time.Now(); ; {
		var stats serve.Stats
		if err := probe.doJSON("GET", "/v1/stats", nil, &stats); err != nil {
			return nil, err
		}
		if stats.ReadsConsumed == stats.ReadsIngested && stats.QueueDepthReads == 0 && stats.CheckpointsWritten >= want {
			break
		}
		if time.Since(t0) > time.Minute {
			return nil, fmt.Errorf("journal daemon did not drain: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return st, nil
}

// ingest creates a session and sends bodies [0, p.from); finished
// sessions are also finished.
func ingest(cl *client, p paused, finish bool) (string, error) {
	var cr serve.CreateResponse
	if err := cl.doJSON("POST", "/v1/sessions", p.in.hdrJSON, &cr); err != nil {
		return "", err
	}
	path := "/v1/sessions/" + cr.ID
	for k := 0; k < p.from; k++ {
		if err := cl.doJSON("POST", path+"/reads", p.in.bodies[k], nil); err != nil {
			return "", err
		}
	}
	if finish {
		if err := cl.doJSON("POST", path+"/finish", nil, nil); err != nil {
			return "", err
		}
	}
	return cr.ID, nil
}

// bootAndResume boots stppd on a fresh copy of the journal (one setup_s
// sample), checks the finished sessions came back final, then resumes and
// finishes every live session as the measured load.
func bootAndResume(e *env, st *restartState, o *outcome, b int) error {
	dir := filepath.Join(e.runDir, fmt.Sprintf("boot-%d", b))
	if err := copyDir(st.journal, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(e.stppd, filepath.Join(e.runDir, "stppd.log"), e.cfg.args(dir))
	if err != nil {
		return err
	}
	defer d.kill()
	o.boots = append(o.boots, d.bootS)
	r := o.rec
	var probeDials atomic.Int64
	probe := newClient(d.base, &probeDials)
	for _, p := range st.finished {
		var ord serve.OrderResponse
		r.attempted++
		err := probe.doJSON("GET", "/v1/sessions/"+p.id+"/order", nil, &ord)
		switch {
		case err != nil:
			r.fail("%s: recovered finished session: %v", p.in.name, err)
		case !ord.Final || !slices.Equal(ord.XOrder, p.in.ref.x) || !slices.Equal(ord.YOrder, p.in.ref.y):
			r.fail("%s: recovered finished session differs from the reference", p.in.name)
		default:
			r.accX[p.in.name] = p.in.ref.accX
		}
	}
	probe.close()
	return loadPhase(d, o, e.pacing(), 0, func(c int, cl *client, rec *recorder, sc *scraper, p pacing) {
		sch := &schedule{start: p.start}
		for i := c; i < len(st.live); i += clients {
			s := &session{c: cl, rec: rec, in: st.live[i].in, p: p, id: st.live[i].id, from: st.live[i].from, sch: sch}
			s.run(sc)
		}
	})
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/deploy"
	"repro/internal/epcgen2"
	"repro/internal/metrics"
	"repro/internal/phys"
	"repro/internal/reader"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stpp"
	"repro/internal/trace"
)

// maxBatch is stppd's default -batch: the daemon cuts every POST body
// into queued batches of at most this many reads.
const maxBatch = 256

// daemonCfg is the stppd configuration of a workload. It drives the
// daemon's flags, the in-process traced replay and the offline reference,
// so all three run the same cadence and lifecycle.
type daemonCfg struct {
	durable         bool
	fsync           string
	flushWindow     string
	publish         int
	checkpointEvery int
	finalizeAfter   float64
	finalizeMargin  float64
}

// args renders the stppd flags; dataDir is used only when durable.
func (c daemonCfg) args(dataDir string) []string {
	a := []string{
		"-publish", fmt.Sprint(c.publish),
		"-checkpoint-every", fmt.Sprint(c.checkpointEvery),
	}
	if c.durable {
		a = append(a, "-data-dir", dataDir, "-fsync", c.fsync)
		if c.flushWindow != "" {
			a = append(a, "-flush-window", c.flushWindow)
		}
	}
	if c.finalizeAfter > 0 {
		a = append(a, "-finalize-after", fmt.Sprint(c.finalizeAfter),
			"-finalize-margin", fmt.Sprint(c.finalizeMargin))
	}
	return a
}

func (c daemonCfg) policy() stpp.FinalizePolicy {
	return stpp.FinalizePolicy{After: c.finalizeAfter, Margin: c.finalizeMargin}
}

// baseConfig is stppd's default engine configuration (-channel 6, -w 5).
func baseConfig() stpp.Config {
	cfg := stpp.DefaultConfig(phys.ChinaBand.Wavelength(6))
	cfg.Window = 5
	return cfg
}

// input is one generated session trace, encoded for the wire, with the
// offline reference its final order must match.
type input struct {
	name    string
	header  trace.Header // truth stripped: stppd receives only reads
	hdrJSON []byte
	reads   []reader.TagRead
	truthX  []epcgen2.EPC
	bodies  [][]byte // pre-encoded NDJSON POST bodies
	cumEnd  []int64  // cumEnd[k] = reads in bodies[0..k]
	ref     *reference
}

// batches cuts bodies [from, to) into the batches the daemon queues:
// each POST body split at maxBatch.
func (in *input) batches(from, to int) [][]reader.TagRead {
	var out [][]reader.TagRead
	for k := from; k < to; k++ {
		for s := in.before(k); s < in.cumEnd[k]; s += maxBatch {
			out = append(out, in.reads[s:min(s+maxBatch, in.cumEnd[k])])
		}
	}
	return out
}

// before is the number of reads in bodies [0, k).
func (in *input) before(k int) int64 {
	if k == 0 {
		return 0
	}
	return in.cumEnd[k-1]
}

// bodyOf returns the index of the POST body holding read number n (1-based).
func (in *input) bodyOf(n int64) int {
	lo, hi := 0, len(in.cumEnd)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if in.cumEnd[mid] >= n {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// reference is the offline replay a session must reproduce: a
// deploy.ShardedEngine with the daemon's Options, fed the daemon's queued
// batches and snapshotted at the daemon's publish cadence — the lifecycle
// makes emission (and discards) depend on where snapshots fall, so a
// one-shot Localize is not a valid reference.
type reference struct {
	x, y    []string
	emitted []serve.EmittedEntry
	snaps   map[int64][2][]string // periodic snapshots by consumed reads
	accX    float64
}

// replayRef runs the cadence-matched offline replay of a whole trace.
func replayRef(in *input, cfg daemonCfg, keepSnaps bool) (*reference, error) {
	se, err := deploy.NewSharded(deploy.FromHeader(in.header, baseConfig(), false, false),
		deploy.Options{Finalize: cfg.policy()})
	if err != nil {
		return nil, err
	}
	defer se.Close()
	ref := &reference{}
	if keepSnaps {
		ref.snaps = map[int64][2][]string{}
	}
	since := 0
	var consumed int64
	for _, b := range in.batches(0, len(in.bodies)) {
		if err := se.Consume(b); err != nil {
			return nil, err
		}
		consumed += int64(len(b))
		since += len(b)
		if cfg.publish > 0 && since >= cfg.publish {
			since = 0
			// Like the daemon, a periodic snapshot that fails (no tags
			// yet) is simply not published.
			if res, err := se.Snapshot(); err == nil && keepSnaps {
				ref.snaps[consumed] = [2][]string{trace.EncodeEPCs(res.XOrder), trace.EncodeEPCs(res.YOrder)}
			}
		}
	}
	res, err := se.Snapshot()
	if err != nil {
		return nil, err
	}
	ref.x, ref.y = trace.EncodeEPCs(res.XOrder), trace.EncodeEPCs(res.YOrder)
	for i, em := range res.Emitted {
		ref.emitted = append(ref.emitted, serve.EmittedEntry{Seq: int64(i), EPC: em.EPC.String(), BottomTime: em.X.BottomTime})
	}
	ref.accX, err = accuracy(res.XOrder, in.truthX)
	return ref, err
}

// accuracy is metrics.OrderingAccuracy of got against the truth
// restricted to the tags got holds: the lifecycle may discard a tag it
// could never detect, and the Equation-2 score is over ordered tags.
func accuracy(got, truth []epcgen2.EPC) (float64, error) {
	in := make(map[epcgen2.EPC]bool, len(got))
	for _, e := range got {
		in[e] = true
	}
	want := make([]epcgen2.EPC, 0, len(got))
	for _, e := range truth {
		if in[e] {
			want = append(want, e)
		}
	}
	return metrics.OrderingAccuracy(got, want)
}

// newInput simulates a multi-reader scene and encodes it into POST bodies
// of post reads with trace.MarshalReads.
func newInput(name string, ms *scenario.MultiScene, seed int64, post int) (*input, error) {
	reads, err := ms.Run()
	if err != nil {
		return nil, err
	}
	in := &input{
		name:   name,
		header: trace.Header{Scenario: ms.Name, Seed: seed, Readers: ms.ReaderMetas()},
		reads:  reads,
		truthX: ms.TruthX,
	}
	if in.hdrJSON, err = json.Marshal(in.header); err != nil {
		return nil, err
	}
	for s := 0; s < len(reads); s += post {
		e := min(s+post, len(reads))
		body, err := trace.MarshalReads(reads[s:e])
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.cumEnd = append(in.cumEnd, int64(e))
	}
	return in, nil
}

func aisleScene(tags int, seed int64) (*scenario.MultiScene, error) {
	o := scenario.DefaultAisleOpts(seed)
	o.Tags = tags
	return scenario.WarehouseAisle(o)
}

func portalsScene(bags int, seed int64) (*scenario.MultiScene, error) {
	return scenario.AirportPortals(scenario.DefaultPortalsOpts(bags, seed))
}

// buildInputs generates n inputs with gen(i) on two goroutines and
// replays each one's reference.
func buildInputs(n int, cfg daemonCfg, keepSnaps bool, gen func(i int) (*input, error)) ([]*input, error) {
	out := make([]*input, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				in, err := gen(i)
				if err == nil {
					in.ref, err = replayRef(in, cfg, keepSnaps)
				}
				out[i], errs[i] = in, err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

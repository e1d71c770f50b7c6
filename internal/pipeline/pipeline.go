// Package pipeline is the streaming localization engine: the online,
// concurrent counterpart of the batch stpp.Localizer.
//
// An Engine consumes TagRead batches as the reader produces them (via
// reader.Simulator.Stream or any other source), maintains incremental
// per-tag phase profiles through a profile.Builder, and fans the expensive
// per-tag stage — V-zone detection by segmented DTW plus quadratic
// X-keying — out to a bounded worker pool. Snapshots may be taken at any
// point during the stream; only tags that gained reads since the previous
// snapshot are re-detected — and re-detection is resumable: each tag keeps
// its segment cache and open-end DTW columns (stpp.DetectState), so a
// snapshot pays O(new reads) per dirty tag rather than O(profile), with a
// transparent rebuild when an out-of-order read re-sorts a profile. The
// global (cheap) X/Y ordering is re-assembled over cached per-tag results.
//
// There is one detection path. stpp owns the per-tag kernel
// (LocalizeTagIncremental) and the assembly (AssembleStates); batch
// stpp.Localizer.Localize runs them once over fresh per-tag states, and
// this engine runs them snapshot after snapshot over resumed ones, one
// scheduler index per dirty tag. Resumed state answers exactly like fresh
// state, so every snapshot — per-tag V-zones, X/Y keys and both orders —
// is identical to stpp.Localizer.LocalizeReads over the same read prefix.
package pipeline

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/epcgen2"
	"repro/internal/profile"
	"repro/internal/reader"
	"repro/internal/sched"
	"repro/internal/stpp"
)

// Options tunes an Engine.
type Options struct {
	// Workers bounds how many scheduler workers may run this engine's
	// per-tag fan-out at once; 0 means runtime.GOMAXPROCS. Work runs on
	// the process-global scheduler, so this is a cap, not a pool size.
	Workers int
	// Group tags this engine's scheduler work for fairness accounting
	// (one group per ingest session, say). Nil uses the scheduler's
	// default group.
	Group *sched.Group
	// Finalize enables the tag lifecycle (active → finalized → evicted):
	// when a tag's pass is conclusive under the policy, the engine emits
	// it to the ordered emission stream and evicts its profile and
	// detection state, bounding memory on endless streams. The zero
	// policy disables the lifecycle entirely — the engine behaves exactly
	// as before.
	Finalize stpp.FinalizePolicy
	// HoldEmission keeps the engine from emitting or evicting on its own
	// sweeps while still tracking the frontier and dropping late reads
	// for tags evicted via Evict. deploy.ShardedEngine sets it: shards
	// propose conclusive tags but only the sharded coordinator — which
	// knows every zone's opinion — may emit and evict.
	HoldEmission bool
}

// Engine is the streaming localization engine. It is not safe for
// concurrent use — Consume and Snapshot must come from one goroutine; the
// engine parallelizes internally.
type Engine struct {
	loc     *stpp.Localizer
	builder *profile.Builder
	workers int
	group   *sched.Group
	cached  map[epcgen2.EPC]stpp.TagResult
	states  map[epcgen2.EPC]*tagState
	reads   int64

	// Lifecycle state (all zero/nil when the policy is disabled).
	policy    stpp.FinalizePolicy
	hold      bool
	frontier  float64 // running max read time across every consumed read
	late      int64   // reads dropped because their tag was already final
	discarded int64   // lapsed-but-unorderable tags evicted without emission
	// final marks tags whose pass concluded; finalOrder is the same set
	// in marking order (map iteration is nondeterministic, checkpoints
	// need a stable order). emitted is the ordered emission stream —
	// append-only, so any prefix a caller has seen is immutable.
	final      map[epcgen2.EPC]bool
	finalOrder []epcgen2.EPC
	emitted    []EmittedTag

	// Snapshot-path scratch, reused across snapshots (the engine is
	// single-goroutine by contract): the assembled tag slice plus the
	// recompute fan-out slices. Without these, every snapshot of a
	// high-cadence stream allocated four slices sized by the population.
	tags    []stpp.TagResult
	yst     []*stpp.DetectState
	ps      []*profile.Profile
	sts     []*stpp.DetectState
	depcs   []epcgen2.EPC
	results []stpp.TagResult
}

// tagState is one tag's resumable detection state plus the profile
// generation it was built against — a generation bump means the builder
// re-sorted the profile after an out-of-order read, so the state must
// rebuild rather than resume — and the profile length the cached result
// was detected at. Same generation and same length mean the profile is
// unchanged (growth is append-only within a generation), so the cached
// result is already exact and recompute can skip the tag.
type tagState struct {
	det    *stpp.DetectState
	gen    uint64
	detLen int
}

// EmittedTag is one entry of the ordered emission stream: a finalized
// tag's identity and its frozen X key. Seq is implicit — an entry's index
// in Engine.Emitted (and in the cursor-paginated serve endpoint) is its
// emission sequence number, and it never changes once assigned.
type EmittedTag struct {
	EPC epcgen2.EPC
	X   stpp.XKey
}

// New builds an Engine for the given STPP configuration.
func New(cfg stpp.Config, opts Options) (*Engine, error) {
	loc, err := stpp.NewLocalizer(cfg)
	if err != nil {
		return nil, err
	}
	return NewFromLocalizer(loc, opts), nil
}

// NewFromLocalizer wraps an existing localizer in a streaming engine.
func NewFromLocalizer(loc *stpp.Localizer, opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		loc:     loc,
		builder: profile.NewBuilder(),
		workers: w,
		group:   opts.Group,
		cached:  make(map[epcgen2.EPC]stpp.TagResult),
		states:  make(map[epcgen2.EPC]*tagState),
		policy:  opts.Finalize,
		hold:    opts.HoldEmission,
	}
	if e.policy.Enabled() {
		e.final = make(map[epcgen2.EPC]bool)
	}
	return e
}

// Localizer returns the underlying batch localizer.
func (e *Engine) Localizer() *stpp.Localizer { return e.loc }

// Tags returns the number of resident tags — distinct tags seen and not
// yet evicted by the lifecycle.
func (e *Engine) Tags() int { return e.builder.Tags() }

// EPCs returns the resident tags in first-appearance order. The slice is
// shared with the engine's builder — callers must not mutate or retain it
// across engine calls.
func (e *Engine) EPCs() []epcgen2.EPC { return e.builder.EPCs() }

// Reads returns the total number of reads consumed so far. Like every
// other Engine method it must be called from the consuming goroutine.
func (e *Engine) Reads() int64 { return e.reads }

// Consume appends a batch of reads to the per-tag profiles. It is cheap
// (amortized O(1) per read); all localization work is deferred to the next
// Snapshot so bursts of reads between snapshots cost one detection per
// touched tag, not one per read.
//
// With a finalize policy enabled, Consume also runs the lifecycle's
// admission path per read: reads for finalized tags are counted and
// dropped (the pass is over — re-admitting them would reopen an emitted
// position), and a read that arrives after a tag's quiet gap has already
// elapsed triggers an immediate conclusive-pass check of the pre-read
// profile. Deciding *here*, against the read-stream frontier rather than
// at the next sweep, makes the finalized set a pure function of the read
// prefix — independent of snapshot or checkpoint cadence — which is what
// the emitted-prefix immutability property rests on.
func (e *Engine) Consume(batch []reader.TagRead) {
	if !e.policy.Enabled() {
		e.builder.AddBatch(batch)
		e.reads += int64(len(batch))
		return
	}
	for _, r := range batch {
		nf := e.frontier
		if r.Time > nf {
			nf = r.Time
		}
		switch {
		case e.final[r.EPC]:
			e.late++
		default:
			if mt, seen := e.builder.MaxTime(r.EPC); seen && mt+e.policy.After <= nf {
				// The tag was quiet for the full gap before this read
				// arrived: judge the pre-read profile now. If it is
				// conclusive the pass is over and this read is late;
				// otherwise the pass genuinely resumes (possible only
				// when the workload violates the policy's gap
				// precondition) and the read is admitted.
				if tr := e.detectOne(r.EPC); e.policy.Conclusive(tr, nf) {
					e.markFinal(r.EPC)
					e.late++
					e.frontier = nf
					continue
				}
			}
			e.builder.Add(r)
			e.reads++
		}
		e.frontier = nf
	}
}

// detectOne refreshes one tag's cached result from its current profile,
// resuming (or gen-rebuilding) its detection state — the single-tag
// serial twin of recompute. The builder's dirty mark for the tag is left
// alone: a later recompute re-running the detection is a no-op by the
// incremental contract (byte-identical result, no extra work).
func (e *Engine) detectOne(epc epcgen2.EPC) stpp.TagResult {
	ts, p, stale := e.stateFor(epc)
	if !stale {
		return e.cached[epc]
	}
	tr := e.loc.LocalizeTagIncremental(ts.det, p)
	e.cached[epc] = tr
	return tr
}

// stateFor returns a tag's current profile and its resumable detection
// state — created on first sight, rebuilt when the sort changed history
// (generation bump). stale is false when the profile is provably unchanged
// since the cached result (same generation, same length): by the
// incremental contract a re-detection would return that result bit for
// bit. A stale state is stamped with the length it is about to detect.
func (e *Engine) stateFor(epc epcgen2.EPC) (ts *tagState, p *profile.Profile, stale bool) {
	p = e.builder.Profile(epc)
	gen := e.builder.Generation(epc)
	ts = e.states[epc]
	if ts == nil {
		ts = &tagState{det: e.loc.NewDetectState(), gen: gen}
		e.states[epc] = ts
	} else if ts.gen != gen {
		ts.det.Reset()
		ts.gen = gen
	} else if ts.detLen == p.Len() {
		return ts, p, false
	}
	ts.detLen = p.Len()
	return ts, p, true
}

func (e *Engine) markFinal(epc epcgen2.EPC) {
	if !e.final[epc] {
		e.final[epc] = true
		e.finalOrder = append(e.finalOrder, epc)
	}
}

// Snapshot localizes the stream consumed so far. Tags with new reads since
// the previous snapshot are re-detected on the worker pool — resuming each
// tag's segmentation and DTW state, so a snapshot pays for the reads that
// arrived since the previous one, not for the whole profile. Unchanged
// tags reuse their cached per-tag result. The returned Result matches what
// the batch Localizer would produce over the same prefix of the read log.
//
// The Result's Tags slice is engine-owned scratch, overwritten by the next
// Snapshot on this engine: callers that retain a snapshot across engine
// calls (deploy.ShardedEngine caches per-shard results, stppd publishes
// them to concurrent queriers) must copy Tags first. XOrder/YOrder are
// freshly allocated and safe to keep.
func (e *Engine) Snapshot() (*stpp.Result, error) {
	if e.builder.Tags() == 0 && len(e.emitted) == 0 {
		return nil, fmt.Errorf("pipeline: no tag profiles in stream")
	}
	e.recompute(e.builder.TakeDirty())
	e.sweep()
	epcs := e.builder.EPCs()
	if len(epcs) == 0 {
		// Every resident was emitted and evicted: the snapshot's active
		// part is empty (the full order is Emitted() alone).
		return &stpp.Result{}, nil
	}
	e.tags, e.yst = e.tags[:0], e.yst[:0]
	for _, epc := range epcs {
		e.tags = append(e.tags, e.cached[epc])
		// Hand the Y stage each tag's detection state so valley windowing
		// resumes the cached unwrap/median curves. Every resident has one:
		// a new tag is dirty on its first snapshot, and a restore gives
		// every restored resident a state.
		e.yst = append(e.yst, e.states[epc].det)
	}
	return e.loc.AssembleStates(e.tags, e.yst), nil
}

// recompute refreshes the cached per-tag results for the given tags,
// fanning the per-tag detections out across the worker pool. Tags whose
// profile is provably unchanged since their cached result — same builder
// generation, same length — are skipped outright: the dirty mark alone
// does not imply new work (detectOne leaves it set, and a read dropped by
// lifecycle admission dirties nothing), and by the incremental contract a
// re-detection of an unchanged profile returns the cached result bit for
// bit.
func (e *Engine) recompute(dirty []epcgen2.EPC) {
	// The builder is read from worker goroutines: force any lazy re-sort to
	// happen here, serially, so workers see quiescent profiles — and pick
	// up each tag's resumable state, rebuilding it when the sort changed
	// history (generation bump).
	e.ps, e.sts, e.depcs = e.ps[:0], e.sts[:0], e.depcs[:0]
	for _, epc := range dirty {
		ts, p, stale := e.stateFor(epc)
		if !stale {
			continue
		}
		e.ps = append(e.ps, p)
		e.sts = append(e.sts, ts.det)
		e.depcs = append(e.depcs, epc)
	}
	n := len(e.depcs)
	if cap(e.results) < n {
		e.results = make([]stpp.TagResult, n)
	}
	e.results = e.results[:n]
	results := e.results
	fill := func(i int) {
		results[i] = e.loc.LocalizeTagIncremental(e.sts[i], e.ps[i])
	}
	if e.group != nil {
		e.group.For(e.workers, n, fill)
	} else {
		sched.Default().For(nil, e.workers, n, fill)
	}
	for i, epc := range e.depcs {
		e.cached[epc] = results[i]
	}
}

// sweep emits conclusive residents — in their final order — and evicts
// them. It must run after recompute (every resident's cached result is
// current) and is a no-op when the lifecycle is disabled or emission is
// held for a sharded coordinator.
//
// Emission order is ascending frozen bottom time, ties by first-appearance
// position — the same comparator the batch X order uses — and a candidate
// only emits while no still-active tag could possibly sort at or before
// it in the final order: an active detected tag whose current (bottom,
// position) already sorts ≤ the candidate's blocks it, and so does any
// active tag whose first read precedes the candidate's bottom (its valley,
// wherever it lands, can still fit before). The first blocked candidate
// stops the sweep — emission is strictly a prefix, so an emitted position
// can never be contradicted later.
func (e *Engine) sweep() {
	if !e.policy.Enabled() || e.hold {
		return
	}
	// Discard pass: a resident whose profile lapsed but whose detection
	// still errs can never be ordered — its profile is frozen, so the
	// error is permanent, exactly as a batch replay over any longer prefix
	// would see it. Left alone it would sit in the barrier below as an
	// eternal blocker (its first read precedes every later tag's bottom)
	// and wedge emission — and memory — for the rest of the stream.
	var drop []epcgen2.EPC
	for _, epc := range e.builder.EPCs() {
		if tr := e.cached[epc]; tr.Err != nil && e.policy.Lapsed(tr, e.frontier) {
			drop = append(drop, epc)
		}
	}
	for _, epc := range drop {
		e.discarded++
		e.Evict(epc)
	}
	epcs := e.builder.EPCs()
	type cand struct {
		epc    epcgen2.EPC
		bottom float64
		pos    int
	}
	var pending []cand
	for i, epc := range epcs {
		if e.final[epc] || e.policy.Conclusive(e.cached[epc], e.frontier) {
			pending = append(pending, cand{epc, e.cached[epc].X.BottomTime, i})
		}
	}
	if len(pending) == 0 {
		return
	}
	slices.SortFunc(pending, func(a, b cand) int {
		if a.bottom != b.bottom {
			return cmp.Compare(a.bottom, b.bottom)
		}
		return cmp.Compare(a.pos, b.pos)
	})
	conclusive := make(map[epcgen2.EPC]bool, len(pending))
	for _, c := range pending {
		conclusive[c.epc] = true
	}
	emit := 0
scan:
	for _, c := range pending {
		for i, epc := range epcs {
			if conclusive[epc] {
				continue
			}
			tr := e.cached[epc]
			if tr.Err == nil {
				if tr.X.BottomTime < c.bottom || (tr.X.BottomTime == c.bottom && i < c.pos) {
					break scan
				}
			}
			if tr.Profile != nil && tr.Profile.Len() > 0 && tr.Profile.Times[0] <= c.bottom {
				break scan
			}
		}
		emit++
	}
	for _, c := range pending[:emit] {
		e.emitted = append(e.emitted, EmittedTag{EPC: c.epc, X: e.cached[c.epc].X})
		e.Evict(c.epc)
	}
}

// Evict force-evicts one resident tag: its profile leaves the builder, its
// detection state returns to the free-lists, and the EPC is marked final
// so later reads for it are dropped as late instead of resurrecting the
// tag. The engine's own sweep calls it after emitting; deploy.ShardedEngine
// calls it directly on shards (with HoldEmission set) once every
// overlapping zone agrees the pass concluded. Evicting a non-resident tag
// still marks it final; the return reports whether the tag was resident.
func (e *Engine) Evict(epc epcgen2.EPC) bool {
	if ts := e.states[epc]; ts != nil {
		ts.det.Release()
		delete(e.states, epc)
	}
	delete(e.cached, epc)
	_, resident := e.builder.MaxTime(epc)
	e.builder.Remove(epc)
	e.markFinal(epc)
	return resident
}

// Emitted returns the ordered emission stream so far. The backing array is
// append-only and engine-owned: entries never change once emitted, so any
// prefix handed out remains valid (and immutable) across further engine
// calls.
func (e *Engine) Emitted() []EmittedTag { return e.emitted }

// LateReads counts reads dropped because their tag had already been
// finalized when they arrived.
func (e *Engine) LateReads() int64 { return e.late }

// Discarded counts tags evicted without emission: their profile lapsed
// (quiet past the policy gap, so frozen) while detection still erred, making
// them permanently unorderable. The counter is process-local diagnostics —
// the final/finalOrder marking a discard leaves behind IS checkpointed, the
// tally is not, so it restarts at zero after a restore.
func (e *Engine) Discarded() int64 { return e.discarded }

// Frontier returns the maximum read time consumed so far (on this
// engine's read clock), including dropped late reads. Zero until the
// lifecycle is enabled — the disabled engine does not track it.
func (e *Engine) Frontier() float64 { return e.frontier }

// FinalizePolicy returns the lifecycle policy the engine was built with.
func (e *Engine) FinalizePolicy() stpp.FinalizePolicy { return e.policy }

// Release returns the engine's pooled holdings — every tag's DTW matrix —
// to their shared free-lists. Call it when the engine is being discarded
// (a finished or dropped ingest session): the matrices are the largest
// per-session allocation, and recycling them lets the next session ramp
// up without re-paying the allocation-and-zeroing ladder. The engine
// remains usable afterwards; further snapshots just recompute.
func (e *Engine) Release() {
	for _, ts := range e.states {
		ts.det.Release()
	}
}

// Close is Release plus dropping every per-tag reference — profiles,
// cached results, detection states, the emission stream — returning the
// engine to its freshly-constructed state. A dropped or evicted ingest
// session calls it so the engine stops pinning its largest allocations
// the moment the session goes away, not whenever the engine itself is
// collected.
func (e *Engine) Close() {
	e.Release()
	e.resetEmpty()
}

// Localize runs the engine over a complete read log in one call — the
// parallel drop-in for stpp.Localizer.LocalizeReads.
func (e *Engine) Localize(reads []reader.TagRead) (*stpp.Result, error) {
	e.Consume(reads)
	return e.Snapshot()
}

// RunSimulator drives a reader simulator to completion through the engine,
// taking a snapshot roughly every `every` seconds of simulated time (0
// disables intermediate snapshots) and returning the final result. The
// simulator streams once with `duration` as its interrogation horizon —
// identical to the batch Run — and the snapshot cadence is derived from
// read timestamps, so no round is ever truncated mid-stream. onSnapshot,
// if non-nil, receives each intermediate snapshot stamped with the latest
// consumed read time; at most one snapshot is emitted per consumed batch,
// so a read gap spanning several intervals yields one fresh snapshot, not
// a backlog of stale duplicates. Intermediate snapshot errors (e.g. no
// tags seen yet) are skipped, not fatal.
func (e *Engine) RunSimulator(sim *reader.Simulator, duration, every float64, onSnapshot func(t float64, res *stpp.Result)) (*stpp.Result, error) {
	next := every
	sim.Stream(duration, func(batch []reader.TagRead) bool {
		e.Consume(batch)
		if onSnapshot != nil && every > 0 {
			// The final snapshot is returned, not emitted (t >= duration).
			if t := batch[len(batch)-1].Time; t >= next && t < duration {
				if res, err := e.Snapshot(); err == nil {
					onSnapshot(t, res)
				}
				for next += every; next <= t; next += every {
				}
			}
		}
		return true
	})
	return e.Snapshot()
}

package pipeline

import (
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/epcgen2"
	"repro/internal/stpp"
)

// engineCkptVersion versions the Engine checkpoint encoding. Version 2
// added the tag lifecycle: frontier, late-read count, the emission stream
// (EPC + frozen X key per entry, ~60 bytes) and the finalized-tag set.
// Evicted tags appear ONLY there — their profiles and detection states
// are gone — so on an endless belt the blob is sized by the active set
// plus a compact emitted summary, flat in belt length. Version 3 added
// the X key's Sigma (bottom-time uncertainty) to every serialized key,
// so restored engines publish the same per-pair confidences as the
// engines that wrote them.
const engineCkptVersion = 3

// Checkpoint serializes the engine's full state — the profile builder,
// every tag's cached per-tag result, and every tag's resumable detection
// state (segment cache, DTW columns, unwrap/median curves) — appending to
// dst. The encoding is byte-stable: it iterates the builder's
// first-appearance order, never a map, so checkpointing the same state
// twice yields identical bytes.
//
// Because every piece of incremental state is a deterministic function of
// the profile contents, an engine restored from this checkpoint behaves
// byte-identically to the engine that wrote it: same snapshot results,
// same future checkpoints after the same suffix of reads.
//
// Checkpoint first brings the incremental state current — the same
// deterministic recompute a Snapshot runs, minus the assembly — so the
// serialized detection state covers every consumed read. Without this, a
// session that checkpoints more often than it publishes would journal
// cold DTW state and the restoring side's first snapshot would pay for
// the whole history, exactly the cost checkpoints exist to avoid. The
// recompute is O(reads since the last snapshot or checkpoint), so the
// advance amortizes the same way snapshots do.
func (e *Engine) Checkpoint(dst []byte) []byte {
	e.recompute(e.builder.TakeDirty())
	// A checkpoint is a sweep point like a snapshot: conclusive residents
	// emit and evict first, so the blob never re-serializes state the
	// lifecycle is about to discard. Emission order is cadence-invariant,
	// so sweeping here cannot diverge from a run that only snapshots.
	e.sweep()
	dst = ckpt.AppendU8(dst, engineCkptVersion)
	dst = ckpt.AppendU64(dst, uint64(e.reads))
	dst = e.builder.AppendCheckpoint(dst)
	epcs := e.builder.EPCs()
	dst = ckpt.AppendU32(dst, uint32(len(epcs)))
	for _, epc := range epcs {
		tr, hasCached := e.cached[epc]
		if !hasCached {
			dst = ckpt.AppendU8(dst, 0)
		} else {
			dst = ckpt.AppendU8(dst, 1)
			dst = ckpt.AppendU64(dst, uint64(tr.VZone.Start))
			dst = ckpt.AppendU64(dst, uint64(tr.VZone.End))
			dst = ckpt.AppendF64(dst, tr.VZone.Cost)
			dst = ckpt.AppendF64(dst, tr.X.BottomTime)
			dst = ckpt.AppendF64(dst, tr.X.BottomPhase)
			dst = ckpt.AppendF64(dst, tr.X.Fit.A)
			dst = ckpt.AppendF64(dst, tr.X.Fit.B)
			dst = ckpt.AppendF64(dst, tr.X.Fit.C)
			dst = ckpt.AppendF64(dst, tr.X.R2)
			dst = ckpt.AppendF64(dst, tr.X.Sigma)
			if tr.Err != nil {
				dst = ckpt.AppendU8(dst, 1)
				dst = ckpt.AppendString(dst, tr.Err.Error())
			} else {
				dst = ckpt.AppendU8(dst, 0)
			}
		}
		ts := e.states[epc]
		if ts == nil {
			dst = ckpt.AppendU8(dst, 0)
		} else {
			dst = ckpt.AppendU8(dst, 1)
			dst = ckpt.AppendU64(dst, ts.gen)
			dst = ts.det.AppendCheckpoint(dst)
		}
	}
	dst = ckpt.AppendF64(dst, e.frontier)
	dst = ckpt.AppendU64(dst, uint64(e.late))
	dst = ckpt.AppendU32(dst, uint32(len(e.emitted)))
	for _, em := range e.emitted {
		dst = em.AppendCheckpoint(dst)
	}
	dst = ckpt.AppendU32(dst, uint32(len(e.finalOrder)))
	for _, epc := range e.finalOrder {
		dst = append(dst, epc[:]...)
	}
	return dst
}

// AppendCheckpoint serializes one emission-stream entry (raw EPC bytes
// plus the seven XKey floats, ~70 bytes) — the compact per-tag footprint
// that keeps checkpoint blobs flat in belt length. deploy.ShardedEngine
// reuses the codec for its global emission stream.
func (em EmittedTag) AppendCheckpoint(dst []byte) []byte {
	dst = append(dst, em.EPC[:]...)
	return appendXKey(dst, em.X)
}

// ReadEmittedTagCkpt decodes one AppendCheckpoint entry.
func ReadEmittedTagCkpt(r *ckpt.Reader) (em EmittedTag) {
	for j := range em.EPC {
		em.EPC[j] = r.U8()
	}
	em.X = readXKey(r)
	return em
}

func appendXKey(dst []byte, k stpp.XKey) []byte {
	dst = ckpt.AppendF64(dst, k.BottomTime)
	dst = ckpt.AppendF64(dst, k.BottomPhase)
	dst = ckpt.AppendF64(dst, k.Fit.A)
	dst = ckpt.AppendF64(dst, k.Fit.B)
	dst = ckpt.AppendF64(dst, k.Fit.C)
	dst = ckpt.AppendF64(dst, k.R2)
	dst = ckpt.AppendF64(dst, k.Sigma)
	return dst
}

func readXKey(r *ckpt.Reader) (k stpp.XKey) {
	k.BottomTime = r.F64()
	k.BottomPhase = r.F64()
	k.Fit.A = r.F64()
	k.Fit.B = r.F64()
	k.Fit.C = r.F64()
	k.R2 = r.F64()
	k.Sigma = r.F64()
	return k
}

// RestoreCheckpoint rebuilds the engine from Checkpoint output read
// sequentially from r, replacing any current contents. On error the engine
// is left empty (as if freshly constructed).
func (e *Engine) RestoreCheckpoint(r *ckpt.Reader) error {
	reset := e.resetEmpty
	if v := r.U8(); r.Err() == nil && v != engineCkptVersion {
		r.Failf("engine checkpoint version %d", v)
	}
	reads := int64(r.U64())
	if err := e.builder.RestoreCheckpoint(r); err != nil {
		reset()
		return fmt.Errorf("pipeline: restore builder: %w", err)
	}
	cached := make(map[epcgen2.EPC]stpp.TagResult)
	states := make(map[epcgen2.EPC]*tagState)
	epcs := e.builder.EPCs()
	if n := int(r.U32()); r.Err() == nil && n != len(epcs) {
		r.Failf("%d tag entries for %d profiles", n, len(epcs))
	}
	for _, epc := range epcs {
		if r.Err() != nil {
			break
		}
		if r.U8() != 0 {
			tr := stpp.TagResult{EPC: epc, Profile: e.builder.LiveProfile(epc)}
			tr.VZone.Start = int(r.U64())
			tr.VZone.End = int(r.U64())
			tr.VZone.Cost = r.F64()
			tr.X.BottomTime = r.F64()
			tr.X.BottomPhase = r.F64()
			tr.X.Fit.A = r.F64()
			tr.X.Fit.B = r.F64()
			tr.X.Fit.C = r.F64()
			tr.X.R2 = r.F64()
			tr.X.Sigma = r.F64()
			if r.U8() != 0 {
				tr.Err = errors.New(r.String())
			}
			cached[epc] = tr
		}
		// Every resident gets a state — Snapshot hands one per tag to the
		// Y stage. A blob without one (the writer never produces that for
		// a resident) restores a fresh state, which answers exactly like
		// the from-scratch computation.
		ts := &tagState{det: e.loc.NewDetectState(), gen: e.builder.Generation(epc)}
		if r.U8() != 0 {
			ts.gen = r.U64()
			if err := ts.det.RestoreCheckpoint(r); err != nil {
				reset()
				return fmt.Errorf("pipeline: restore tag state: %w", err)
			}
		}
		states[epc] = ts
	}
	frontier := r.F64()
	late := int64(r.U64())
	var emitted []EmittedTag
	if n := int(r.U32()); r.Err() == nil {
		for i := 0; i < n && r.Err() == nil; i++ {
			emitted = append(emitted, ReadEmittedTagCkpt(r))
		}
	}
	var finalOrder []epcgen2.EPC
	var final map[epcgen2.EPC]bool
	if n := int(r.U32()); r.Err() == nil {
		if n > 0 || e.policy.Enabled() {
			final = make(map[epcgen2.EPC]bool, n)
		}
		for i := 0; i < n && r.Err() == nil; i++ {
			var epc epcgen2.EPC
			for j := range epc {
				epc[j] = r.U8()
			}
			if final[epc] {
				r.Failf("duplicate finalized tag %v", epc)
				break
			}
			final[epc] = true
			finalOrder = append(finalOrder, epc)
		}
	}
	if err := r.Err(); err != nil {
		reset()
		return fmt.Errorf("pipeline: restore: %w", err)
	}
	e.cached, e.states, e.reads = cached, states, reads
	e.frontier, e.late = frontier, late
	e.emitted, e.final, e.finalOrder = emitted, final, finalOrder
	return nil
}

// emptyBuilderCkpt is the checkpoint of an empty builder (0 tags, 0 dirty)
// — used to reset the builder on a failed restore.
var emptyBuilderCkpt = []byte{0, 0, 0, 0, 0, 0, 0, 0}

// resetEmpty returns the engine to its freshly-constructed state.
func (e *Engine) resetEmpty() {
	e.builder.RestoreCheckpoint(ckpt.NewReader(emptyBuilderCkpt))
	e.cached = make(map[epcgen2.EPC]stpp.TagResult)
	e.states = make(map[epcgen2.EPC]*tagState)
	e.reads = 0
	e.frontier, e.late, e.discarded = 0, 0, 0
	e.emitted, e.finalOrder = nil, nil
	e.final = nil
	if e.policy.Enabled() {
		e.final = make(map[epcgen2.EPC]bool)
	}
}

// Restore is RestoreCheckpoint over a standalone blob, requiring the blob
// to be fully consumed. On any error — trailing bytes included — the
// engine is left empty.
func (e *Engine) Restore(data []byte) error {
	r := ckpt.NewReader(data)
	if err := e.RestoreCheckpoint(r); err != nil {
		return err
	}
	if r.Len() != 0 {
		e.resetEmpty()
		return fmt.Errorf("pipeline: restore: %d trailing bytes", r.Len())
	}
	return nil
}

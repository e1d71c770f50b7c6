package dtw

import "repro/internal/ckpt"

// AppendSegmentsCkpt encodes segments for an engine checkpoint: a u32
// count, then per segment the phase range, sample span, and interval.
func AppendSegmentsCkpt(dst []byte, segs []Segment) []byte {
	dst = ckpt.AppendU32(dst, uint32(len(segs)))
	for _, s := range segs {
		dst = ckpt.AppendF64(dst, s.Lo)
		dst = ckpt.AppendF64(dst, s.Hi)
		dst = ckpt.AppendU64(dst, uint64(s.Start))
		dst = ckpt.AppendU64(dst, uint64(s.End))
		dst = ckpt.AppendF64(dst, s.Interval)
	}
	return dst
}

// ReadSegmentsCkpt decodes AppendSegmentsCkpt output into dst[:0].
func ReadSegmentsCkpt(r *ckpt.Reader, dst []Segment) []Segment {
	n := int(r.U32())
	if r.Err() != nil {
		return nil
	}
	// Each segment is 40 bytes on the wire; reject counts the remaining
	// input cannot hold before allocating.
	if n*40 > r.Len() {
		r.Failf("segment count %d exceeds input", n)
		return nil
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, Segment{
			Lo:       r.F64(),
			Hi:       r.F64(),
			Start:    int(r.U64()),
			End:      int(r.U64()),
			Interval: r.F64(),
		})
	}
	return dst
}

// AppendState serializes the aligner's resumable DP state: the covered
// query columns, the cell matrix tail, and the full last-row mirror.
// The reference and options are not encoded — they are fixed at
// construction and the restoring side rebuilds the aligner from the same
// detector configuration.
//
// The matrix is truncated to the columns from the last path start − 1 on,
// because that is all a resumed aligner reads: extension needs only the
// final column, the free-end scan reads the (fully kept) last-row
// mirror, and the open end — hence any future traceback — only moves
// forward, merging into the previous path's parent chain no earlier than
// its start. The matrix is the O(reference × history) bulk of a
// checkpoint, so this is what keeps checkpoint size (and restore time)
// bounded by the alignment's active region instead of the session's age.
// If a later traceback does walk behind the kept tail, Align detects it
// and rebuilds the full matrix from the query — the same values, so
// results and subsequent checkpoints stay byte-identical.
func (a *SegmentAligner) AppendState(dst []byte) []byte {
	m := len(a.ref.p)
	n := len(a.q)
	base := a.cm.off
	if s := a.lastStart - 1; s > base {
		base = s
	}
	dst = AppendSegmentsCkpt(dst, a.q)
	dst = ckpt.AppendU64(dst, uint64(base))
	dst = ckpt.AppendF64s(dst, a.cm.cells[(base-a.cm.off)*m:(n-a.cm.off)*m])
	dst = ckpt.AppendF64s(dst, a.lastRow[:n])
	return dst
}

// RestoreState loads state produced by AppendState into an aligner built
// over the same reference and options. The cell matrix lands on a
// free-list array so restore costs the same recycled memory as live
// growth.
func (a *SegmentAligner) RestoreState(r *ckpt.Reader) error {
	// The restored columns are not the ones the held path was traced over;
	// the next Align must retrace.
	a.endValid = false
	reset := func() {
		a.q, a.cm.cells, a.cm.off, a.lastStart = a.q[:0], a.cm.cells[:0], 0, 0
	}
	a.q = ReadSegmentsCkpt(r, a.q[:0])
	base := int(r.U64())
	if r.Err() == nil && (base < 0 || base > len(a.q)) {
		r.Failf("aligner base %d for %d columns", base, len(a.q))
	}
	if err := r.Err(); err != nil {
		reset()
		return err
	}
	m := len(a.ref.p)
	need := m * (len(a.q) - base)
	if cap(a.cm.cells) < need {
		putCells(a.cm.cells)
		a.cm.cells = getCells(need)
	}
	a.cm.m = m
	a.cm.off = base
	a.lastStart = 0
	a.cm.cells = r.F64s(a.cm.cells[:0])
	a.lastRow = r.F64s(a.lastRow[:0])
	if err := r.Err(); err != nil {
		reset()
		return err
	}
	if len(a.cm.cells) != need || len(a.lastRow) != len(a.q) {
		cells, lr, cols := len(a.cm.cells), len(a.lastRow), len(a.q)
		reset()
		r.Failf("aligner state shape: %d cells, %d last-row for %d×%d+%d", cells, lr, m, cols, base)
		return r.Err()
	}
	return nil
}

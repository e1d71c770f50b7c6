package dtw

import (
	"math/bits"
	"sync"
)

// Segment is the coarse representation of one chunk of a phase profile, as
// defined in Section 3.1.2 of the paper: the [min, max] phase range within
// the chunk and the chunk's time interval. Segments never span a 0<->2π
// phase jump (the segmenter splits at jumps).
type Segment struct {
	// Lo and Hi are the minimum and maximum phase values in the segment
	// (s^L and s^U in the paper).
	Lo, Hi float64
	// Start and End are the sample indices [Start, End) covered by the
	// segment in the original profile.
	Start, End int
	// Interval is the time span of the segment in seconds (s^T).
	Interval float64
}

// SegDist is the paper's distance between two segment ranges: the gap
// between the closest points of the two [Lo,Hi] intervals, zero when they
// overlap.
func SegDist(a, b Segment) float64 {
	switch {
	case a.Lo > b.Hi:
		return a.Lo - b.Hi
	case b.Lo > a.Hi:
		return b.Lo - a.Hi
	default:
		return 0
	}
}

// SegmentAlignOpts tunes segment-level DTW.
type SegmentAlignOpts struct {
	// Stiffness penalizes non-diagonal warping steps, in radians: a
	// vertical step (compressing the reference) adds Stiffness × the
	// repeated reference segment's interval; a horizontal step adds
	// Stiffness × the repeated query segment's interval. Zero disables the
	// penalty (the paper's plain recurrence).
	//
	// The penalty matters because the paper's segment-range distance is
	// zero whenever two ranges overlap; on long measured profiles whose
	// steep flanks produce wide-range segments, an unpenalized subsequence
	// match can collapse the whole reference onto a single segment.
	Stiffness float64
}

// segMatrix is a segment-DTW cost matrix backed by one flat slice, stored
// column-major (cell (i, j) lives at j*m+i) so the resumable aligner can
// extend it one query column at a time with a plain append; the backing
// arrays recycle through the cell free-list below.
type segMatrix struct {
	m int // rows: reference segments
	// off is the first query column the cells actually hold; columns
	// before it were dropped by a tail-truncated state restore (see
	// SegmentAligner.RestoreState). Live aligners always run with off 0.
	off   int
	cells []float64
}

func (cm *segMatrix) at(i, j int) float64 { return cm.cells[(j-cm.off)*cm.m+i] }

// cellFree recycles matrix backing arrays by power-of-two capacity
// class. Every resumable aligner (one per tracked tag) grows its matrix
// through doublings as its query extends, and a fresh make() pays the
// runtime's zeroing of the entire new capacity — which profiled as a
// quarter of daemon ingest. Cells are always written before read, so
// recycled arrays skip that cost entirely.
//
// This is an explicit byte-capped free-list rather than a sync.Pool:
// session churn allocates enough to trigger collections between one
// session's teardown and the next one's ramp-up, and sync.Pool's GC
// victim policy dropped the buffers exactly then — profiles showed the
// whole doubling ladder re-allocated (and re-zeroed) for every fresh
// session. A wide population runs one aligner per tag, all climbing the
// same size ladder together, so the list is capped by total retained
// bytes (cellFreeMaxBytes) rather than per-class counts — a per-class cap
// of a few arrays served a few tags and dropped the rest. float64 arrays
// are pointer-free, so retaining them adds no GC scan work, and the lock
// is uncontended in practice — arrays move only on capacity growth, which
// doubling makes logarithmic.
var (
	cellMu        sync.Mutex
	cellFree      [48][][]float64
	cellFreeBytes int
)

// cellFreeMaxBytes bounds the retained cell-array bytes (~a couple of
// sessions' worth of DP matrices for a wide population).
const cellFreeMaxBytes = 32 << 20

// getCells returns a zero-length slice with capacity ≥ need, recycled
// when possible. Capacities are exact powers of two so arrays re-enter
// their class on release. A request may be served from a few classes
// above its own: after one session warms the list, a fresh tag starts on
// a session-final-sized array and skips its whole regrowth ladder.
func getCells(need int) []float64 {
	if need < 1 {
		need = 1
	}
	k := bits.Len(uint(need - 1))
	cellMu.Lock()
	for j := k; j < k+6 && j < len(cellFree); j++ {
		if cl := cellFree[j]; len(cl) > 0 {
			c := cl[len(cl)-1]
			cl[len(cl)-1] = nil
			cellFree[j] = cl[:len(cl)-1]
			cellFreeBytes -= 8 << j
			cellMu.Unlock()
			return c
		}
	}
	cellMu.Unlock()
	return make([]float64, 0, 1<<k)
}

// putCells recycles a backing array obtained from getCells.
func putCells(c []float64) {
	n := cap(c)
	if n == 0 || n&(n-1) != 0 {
		return // not one of ours; let the GC have it
	}
	k := bits.Len(uint(n - 1))
	cellMu.Lock()
	if cellFreeBytes+8*n <= cellFreeMaxBytes {
		cellFree[k] = append(cellFree[k], c[:0])
		cellFreeBytes += 8 * n
	}
	cellMu.Unlock()
}

// Reference is the operand set of one segment-DTW reference, shared by
// every aligner built over it: the segments, the options, and the flat
// per-row panels the column fill reads (range bounds, intervals, and the
// precomputed vertical-step penalty Stiffness×interval). A detector over a
// wide tag population builds ONE Reference and hands every tag's aligner a
// pointer to it, so the population holds one copy of the panels instead
// of one per tag — and the panels never need re-deriving per aligner. A
// Reference is immutable after construction and safe for concurrent
// readers.
type Reference struct {
	p                     []Segment
	opts                  SegmentAlignOpts
	pLo, pHi, pInt, pVert []float64
}

// NewReference derives the shared panels for a reference once.
func NewReference(p []Segment, opts SegmentAlignOpts) *Reference {
	m := len(p)
	r := &Reference{
		p: p, opts: opts,
		pLo: make([]float64, m), pHi: make([]float64, m),
		pInt: make([]float64, m), pVert: make([]float64, m),
	}
	for i := range p {
		r.pLo[i] = p[i].Lo
		r.pHi[i] = p[i].Hi
		r.pInt[i] = p[i].Interval
		r.pVert[i] = opts.Stiffness * p[i].Interval
	}
	return r
}

// SegmentAligner runs the paper's coarse DTW as an open-end subsequence
// alignment: the whole reference must be consumed, but it may match any
// contiguous run of the query's segments. The cost of matching reference
// segment i against query segment j is
//
//	min(sT_i, sT_j) * SegDist(i, j)
//
// accumulated with the DTW recurrence plus the Stiffness penalty on
// non-diagonal steps. The reference is fixed at construction and the
// aligner holds the DP state column-by-column over query segments. Re-aligning
// after k segments were appended to the query extends the DP in O(m·k)
// instead of recomputing the full O(m·n) matrix — the property that makes
// periodic snapshots over an append-only profile pay for new reads only.
//
// Align compares the new query against the columns already held and keeps
// the longest unchanged prefix, so a query whose tail was rewritten (a
// re-segmentation after an out-of-order read) transparently degrades to
// recomputing from the first changed segment. The held state grows with the
// query: O(m·n) cells; Release hands them back to the free-list. A
// SegmentAligner is not safe for concurrent use.
type SegmentAligner struct {
	// ref holds the reference segments, options and the flat per-row fill
	// operands. Aligners built by NewSharedAligner point at one Reference
	// shared across the whole tag population — the aligner itself is a
	// facade over the shared panels plus this tag's private DP state;
	// NewSegmentAligner owns a private one.
	ref *Reference
	q   []Segment // query segments the DP currently covers
	cm  segMatrix

	// cost is the per-column scratch of the fill's first pass: the
	// pointwise matching costs, computed branch-light over the flat
	// operand arrays before the sequential DP pass consumes them.
	cost []float64
	// lastRow mirrors row m−1 of the matrix contiguously (lastRow[j] =
	// cells[(j+1)m−1]): the free-end scan reads every column's final cell
	// on every Align, and walking the column-major matrix at stride m
	// missed cache on each step.
	lastRow []float64
	// path is the traceback scratch reused across Aligns; the Result
	// returned by Align aliases it (see the Align doc).
	path Path
	// lastStart is the previous Align's path-start column. State export
	// truncates the serialized matrix to the columns from lastStart−1 on:
	// the open end only ever moves forward, so a future traceback revisits
	// earlier columns only if the optimal path itself moves back — and
	// that case rebuilds the full matrix (see Align), keeping results and
	// future checkpoints byte-identical.
	lastStart int
	// Traceback memo: when the free-end scan picks the same end column as
	// the previous alignment and no recomputed column reaches it (fillLo >
	// endJ), every cell the traceback would visit is unchanged, so the
	// held path IS the answer. A tag whose pass is over keeps its best end
	// fixed while the stream appends columns behind it — exactly the
	// steady state of a high-cadence snapshot loop, where the per-align
	// retrace otherwise costs O(m+n) each time.
	fillLo   int
	lastEndJ int
	endValid bool
}

// NewSegmentAligner builds an aligner over its own private Reference.
// Prefer NewSharedAligner when many aligners run the same reference.
func NewSegmentAligner(p []Segment, opts SegmentAlignOpts) *SegmentAligner {
	return NewSharedAligner(NewReference(p, opts))
}

// NewSharedAligner builds an aligner over an existing (shared) Reference:
// the aligner carries only its own DP state and scratch, so a thousand
// tags over one reference hold one copy of the panels.
func NewSharedAligner(ref *Reference) *SegmentAligner {
	return &SegmentAligner{ref: ref}
}

// Cols reports how many query columns of DP state are held — the next
// Align pays only for columns beyond the common prefix (exposed for tests).
func (a *SegmentAligner) Cols() int { return len(a.q) }

// Release returns the aligner's DP matrix to the shared free-list and
// clears its held columns. An aligner's matrix is its largest holding —
// the final-size array a tag grew into over a whole session — and without
// an explicit release it dies with the session while the free-list only
// ever sees the outgrown smaller rungs. The aligner remains usable; the
// next Align simply recomputes from scratch.
func (a *SegmentAligner) Release() {
	putCells(a.cm.cells)
	a.cm.cells = nil
	a.cm.off = 0
	a.q = a.q[:0]
	a.lastStart = 0
	a.endValid = false
}

// Align answers the open-end subsequence query over q: the whole reference
// must be consumed, q may match any contiguous run, ties prefer the latest
// end. It returns the result plus the first and last matched segment
// indices of q. Columns shared with the previous call are reused; only new
// or changed query segments are computed, and the answer is byte-identical
// to a fresh aligner's over the same q.
//
// The returned Result's Path is aligner-owned scratch, overwritten by the
// next Align on this aligner: callers that retain it across calls must
// copy it first.
func (a *SegmentAligner) Align(q []Segment) (Result, int, int) {
	m := len(a.ref.p)
	if m == 0 || len(q) == 0 {
		return Result{}, 0, 0
	}
	a.cm.m = m
	if cap(a.cost) < m {
		a.cost = make([]float64, m)
	}
	// Keep the longest prefix of held columns whose segments are unchanged.
	cp := 0
	for cp < len(a.q) && cp < len(q) && a.q[cp] == q[cp] {
		cp++
	}
	a.q = append(a.q[:cp], q[cp:]...)
	if a.cm.off > 0 && cp <= a.cm.off {
		// The first changed segment lands in (or before) the region a
		// tail restore dropped, so the held columns cannot seed the
		// recurrence at cp. Recompute the whole matrix — the values are a
		// deterministic function of (reference, q), so nothing observable
		// changes.
		a.cm.off = 0
		cp = 0
	}
	// Reserve all columns this call needs up front (with doubling headroom
	// so a stream of small extensions regrows O(log n) times, not once per
	// snapshot): the extend loop then only reslices. Growth moves to a
	// recycled pooled array — a fresh make() would zero the whole new
	// capacity, and that memclr dominated ingest profiles.
	if need := m * (len(q) - a.cm.off); cap(a.cm.cells) < need {
		if c := 2 * cap(a.cm.cells); need < c {
			need = c
		}
		grown := append(getCells(need), a.cm.cells[:(cp-a.cm.off)*m]...)
		putCells(a.cm.cells)
		a.cm.cells = grown
	} else {
		a.cm.cells = a.cm.cells[:(cp-a.cm.off)*m]
	}
	if cap(a.lastRow) < len(q) {
		nl := make([]float64, len(q), 2*len(q))
		copy(nl, a.lastRow[:cp])
		a.lastRow = nl
	} else {
		a.lastRow = a.lastRow[:len(q)]
	}
	a.fillLo = cp
	for j := cp; j < len(q); j++ {
		a.extendColumn(j)
	}

	// Free end: pick the cheapest cell in the last reference row — read
	// from the contiguous mirror, not the strided matrix. Ties prefer the
	// latest end so zero-cost plateaus match the whole pattern region
	// rather than a truncated prefix.
	n := len(a.q)
	endJ := 0
	last := a.lastRow[:n]
	best := last[0]
	for j := 1; j < n; j++ {
		if c := last[j]; c <= best {
			best, endJ = c, j
		}
	}
	if a.endValid && endJ == a.lastEndJ && a.fillLo > endJ && len(a.path) > 0 {
		// Same best end as last time and every column the traceback visits
		// (≤ endJ) predates this call's recompute range: the held path and
		// its start are the answer, cell for cell.
		return Result{Distance: best, Path: a.path}, a.path[0].J, endJ
	}
	path := tracebackStiff(&a.cm, a.ref.p, a.q, a.ref.opts, m-1, endJ, a.path)
	if path == nil {
		// The optimal path walked into the truncated region (possible
		// only after a tail-state restore, when the best open end moved
		// behind the dropped columns). Rebuild the full matrix — identical
		// values, deterministically — and retrace.
		a.rebuildAll()
		path = tracebackStiff(&a.cm, a.ref.p, a.q, a.ref.opts, m-1, endJ, a.path)
	}
	a.path = path
	a.lastStart = path[0].J
	a.lastEndJ = endJ
	a.endValid = true
	return Result{Distance: best, Path: path}, path[0].J, endJ
}

// rebuildAll recomputes every DP column from scratch, restoring the
// full-matrix invariant (off == 0) after a tail restore proved too short
// for a traceback. Cell values are a pure function of (reference, query),
// so the rebuilt matrix is identical to one grown live.
func (a *SegmentAligner) rebuildAll() {
	m := len(a.ref.p)
	a.cm.off = 0
	if need := m * len(a.q); cap(a.cm.cells) < need {
		putCells(a.cm.cells)
		a.cm.cells = getCells(need)
	}
	a.cm.cells = a.cm.cells[:0]
	for j := range a.q {
		a.extendColumn(j)
	}
}

// extendColumn computes DP column j from column j-1 in two passes.
//
// Pass 1 (fillCost) is the pointwise matching cost, free of
// cross-iteration dependencies.
//
// Pass 2 is the sequential min-of-three DP, which carries the col[i-1]
// dependency and stays scalar; splitting the cost out of it roughly
// halves the work on that critical path.
func (a *SegmentAligner) extendColumn(j int) {
	m := len(a.ref.p)
	// Grow the matrix by column j; the caller (Align or rebuildAll)
	// reserved the capacity, so this is a reslice.
	base := (j - a.cm.off) * m
	a.cm.cells = a.cm.cells[:base+m]
	col := a.cm.cells[base : base+m : base+m]
	cost := a.fillCost(j, m)

	// Row 0 is a free start: the first reference segment may match any
	// query column at just its pointwise cost. acc carries col[i−1] in a
	// register through the sequential pass — it is the loop dependency, so
	// reloading it from memory each iteration lengthens the critical path.
	acc := cost[0]
	col[0] = acc
	pVert := a.ref.pVert[:m]
	if j == 0 {
		for i := 1; i < m; i++ {
			// Fixed association ((cost + col[i−1]) + pVert): float
			// addition rounds per operation, so regrouping would change
			// the cell bits that checkpoints pin.
			acc = cost[i] + acc + pVert[i]
			col[i] = acc
		}
		a.lastRow[0] = acc
		return
	}
	// Column j−1; j is past the first held column here (a tail-restored
	// matrix always resumes after its offset).
	prev := a.cm.cells[base-m : base : base]
	horiz := a.ref.opts.Stiffness * a.q[j].Interval
	diag := prev[0]
	for i := 1; i < m; i++ {
		best := acc + pVert[i]
		if left := prev[i] + horiz; left < best {
			best = left
		}
		if diag < best {
			best = diag
		}
		diag = prev[i]
		acc = cost[i] + best
		col[i] = acc
	}
	a.lastRow[j] = acc
}

// fillCost is the fill's first pass for column j: the pointwise matching
// costs — min(sT_i, sT_j)·SegDist with the reference operands read from
// the flat panels. It is written as independent straight-line iterations over
// contiguous float streams with no cross-iteration dependency: the shape
// the compiler can keep in registers and unroll. The max(0, lo−hi, lo−hi)
// form equals SegDist's comparison chain exactly — segment ranges are
// proper intervals, so at most one of the two gaps is positive — and the
// interval branch equals math.Min bit-for-bit on these finite
// non-negative operands.
func (a *SegmentAligner) fillCost(j, m int) []float64 {
	qj := a.q[j]
	qLo, qHi, qInt := qj.Lo, qj.Hi, qj.Interval
	cost := a.cost[:m]
	pLo := a.ref.pLo[:m]
	pHi := a.ref.pHi[:m]
	pInt := a.ref.pInt[:m]
	if useFillAsm && m >= 4 {
		// 4-wide vector pass; bit-identical to the scalar loop below
		// (see fillcost_amd64.go for the tie/NaN argument).
		fillCostAVX2(qLo, qHi, qInt, &pLo[0], &pHi[0], &pInt[0], &cost[0], m)
		return cost
	}
	for i := range cost {
		d := 0.0
		if v := pLo[i] - qHi; v > d {
			d = v
		}
		if v := qLo - pHi[i]; v > d {
			d = v
		}
		t := pInt[i]
		if qInt < t {
			t = qInt
		}
		cost[i] = t * d
	}
	return cost
}

// tracebackStiff reconstructs the optimal path of a stiffness-weighted
// open-end segment alignment: the path may start at any column of the
// first row (subsequence matching). It returns nil when the walk
// would read a column before cm.off — a tail-restored matrix that turned
// out too short — in which case the caller must rebuild the full matrix
// and retrace; a full matrix (off 0) always yields a path.
func tracebackStiff(cm *segMatrix, p, q []Segment, opts SegmentAlignOpts, i, j int, dst Path) Path {
	// A warping path from (i, j) back to row 0 takes at most i+j+1 steps:
	// one exact-capacity allocation instead of append doublings — skipped
	// entirely when the caller hands back a big-enough scratch. A scratch
	// that must grow doubles, so a steadily lengthening query (the
	// incremental ingest pattern) reallocates O(log n) times, not per call.
	rev := dst[:0]
	if need := i + j + 1; cap(rev) < need {
		if c := 2 * cap(rev); c > need {
			need = c
		}
		rev = make(Path, 0, need)
	}
	for {
		rev = append(rev, Step{I: i, J: j})
		if i == 0 {
			break
		}
		if j == 0 {
			i--
			continue
		}
		if j <= cm.off {
			// Deciding the step at (i, j) reads column j−1, which a
			// tail-restored matrix no longer holds. Never reached with a
			// full matrix (off 0 makes the j == 0 branch fire first); the
			// caller rebuilds the full matrix and retraces.
			return nil
		}
		vert := cm.at(i-1, j) + opts.Stiffness*p[i].Interval
		horiz := cm.at(i, j-1) + opts.Stiffness*q[j].Interval
		diag := cm.at(i-1, j-1)
		if diag <= vert && diag <= horiz {
			i--
			j--
		} else if vert <= horiz {
			i--
		} else {
			j--
		}
	}
	reverse(rev)
	return rev
}

// Package dtw implements Dynamic Time Warping: the classic O(MN)
// dynamic-programming alignment with a Sakoe-Chiba banded variant, and the
// paper's segment-level coarse DTW that reduces the complexity to
// O(MN/w^2) (Section 3.1.2 of the STPP paper). The segment DTW is an
// open-end subsequence alignment — it locates a short reference pattern
// inside a long measured profile — run by a resumable SegmentAligner.
package dtw

import (
	"math"
	"sync"
	"sync/atomic"
)

// Path is a warping path: a sequence of (i, j) index pairs into the two
// aligned sequences, monotone in both coordinates.
type Path []Step

// Step is one cell of a warping path.
type Step struct {
	I, J int
}

// Result is the outcome of a DTW alignment.
type Result struct {
	// Distance is the accumulated cost of the optimal warping path.
	Distance float64
	// Path is the optimal warping path from (0,0) to (len(a)-1, len(b)-1)
	// (or to the best open end for subsequence variants).
	Path Path
}

// Dist is a pointwise distance function between elements of the two
// sequences.
type Dist func(a, b float64) float64

// AbsDist is the default pointwise distance |a-b| used by the paper
// (Euclidean distance in one dimension).
func AbsDist(a, b float64) float64 { return math.Abs(a - b) }

// Align computes the classic DTW alignment between sequences a and b with
// pointwise distance d. Returns a zero-value Result when either input is
// empty.
func Align(a, b []float64, d Dist) Result {
	return AlignBanded(a, b, d, -1)
}

// inf marks cost-matrix cells outside the band (or not yet reachable).
const inf = math.MaxFloat64

// costMatrix is a row-windowed DTW cost matrix backed by one flat slice:
// row i stores only the columns [lo[i], hi[i]) inside the Sakoe-Chiba
// band, so a banded alignment holds O(m·band) cells instead of the full
// m×n, and matrices are pooled and reused across alignments — the hot
// detection path allocates nothing per call beyond the returned Path.
// Reads outside a row's window return inf, exactly as the out-of-band
// cells of a dense matrix would.
type costMatrix struct {
	lo, hi []int // per-row column window [lo, hi)
	off    []int // per-row offset into cells
	cells  []float64
}

var matrixPool sync.Pool

// matrixGets and matrixPuts count matrix acquisitions and releases so the
// tests can prove no Align return path leaks a pooled matrix (gets ==
// puts once every alignment has returned). Two atomic adds per alignment —
// noise next to the O(m·band) fill.
var matrixGets, matrixPuts atomic.Int64

// newMatrix sizes a pooled matrix for an m×n alignment with the given
// band half-width (band < 0 = full rows). Every in-window cell is written
// by the recurrence before it is read, so cells are not cleared.
func newMatrix(m, n, band int) *costMatrix {
	matrixGets.Add(1)
	cm, _ := matrixPool.Get().(*costMatrix)
	if cm == nil {
		cm = &costMatrix{}
	}
	if cap(cm.lo) < m {
		cm.lo = make([]int, m)
		cm.hi = make([]int, m)
		cm.off = make([]int, m)
	}
	cm.lo, cm.hi, cm.off = cm.lo[:m], cm.hi[:m], cm.off[:m]
	total := 0
	for i := 0; i < m; i++ {
		lo, hi := bandWindow(i, m, n, band)
		cm.lo[i], cm.hi[i], cm.off[i] = lo, hi, total
		total += hi - lo
	}
	if cap(cm.cells) < total {
		cm.cells = make([]float64, total)
	}
	cm.cells = cm.cells[:total]
	return cm
}

func (cm *costMatrix) release() {
	matrixPuts.Add(1)
	matrixPool.Put(cm)
}

// bandWindow returns the contiguous run of columns of row i inside the
// band: |j − diag(i)| <= band, with the diagonal scaled for unequal
// lengths. The window may be empty (a too-narrow band on a non-integer
// diagonal), leaving the row all-inf like the dense matrix did.
//
// The bounds are closed-form — lo = ⌈diag − band⌉, hi = ⌊diag + band⌋ + 1,
// clamped to [0, n) — instead of a per-row linear scan. Because diag and
// the two sums round, Ceil/Floor can land one cell off the exact predicate
// |j − diag| <= band that the dense matrix applied per cell, so each bound
// gets a single fix-up step against that same predicate; the dtw tests
// prove equivalence exhaustively over small (m, n, band).
func bandWindow(i, m, n, band int) (lo, hi int) {
	if band < 0 {
		return 0, n
	}
	diag := float64(i) * float64(n-1) / float64(max(m-1, 1))
	fb := float64(band)
	inBand := func(j int) bool { return math.Abs(float64(j)-diag) <= fb }
	lo = int(math.Ceil(diag - fb))
	if lo < 0 {
		lo = 0
	}
	if lo > 0 && inBand(lo-1) {
		lo--
	} else if lo < n && !inBand(lo) {
		lo++
	}
	hi = int(math.Floor(diag+fb)) + 1
	if hi > n {
		hi = n
	}
	if hi < n && inBand(hi) {
		hi++
	} else if hi > 0 && !inBand(hi-1) {
		hi--
	}
	if lo >= hi || lo >= n || hi <= 0 {
		return 0, 0
	}
	return lo, hi
}

// at reads cell (i, j); out-of-window cells are inf.
func (cm *costMatrix) at(i, j int) float64 {
	if j < cm.lo[i] || j >= cm.hi[i] {
		return inf
	}
	return cm.cells[cm.off[i]+j-cm.lo[i]]
}

// set writes cell (i, j), which must be inside row i's window.
func (cm *costMatrix) set(i, j int, v float64) {
	cm.cells[cm.off[i]+j-cm.lo[i]] = v
}

// AlignBanded computes DTW restricted to a Sakoe-Chiba band of the given
// half-width around the diagonal. band < 0 disables the constraint.
func AlignBanded(a, b []float64, d Dist, band int) Result {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return Result{}
	}
	if d == nil {
		d = AbsDist
	}

	cm := newMatrix(m, n, band)
	defer cm.release()
	for i := 0; i < m; i++ {
		for j, hi := cm.lo[i], cm.hi[i]; j < hi; j++ {
			c := d(a[i], b[j])
			switch {
			case i == 0 && j == 0:
				cm.set(i, j, c)
			case i == 0:
				cm.set(i, j, c+cm.at(i, j-1))
			case j == 0:
				cm.set(i, j, c+cm.at(i-1, j))
			default:
				cm.set(i, j, c+min3(cm.at(i-1, j), cm.at(i, j-1), cm.at(i-1, j-1)))
			}
		}
	}
	if cm.at(m-1, n-1) == inf {
		// Band too narrow to connect the corners; fall back to unconstrained.
		return AlignBanded(a, b, d, -1)
	}
	return Result{
		Distance: cm.at(m-1, n-1),
		Path:     traceback(cm, m-1, n-1),
	}
}

// traceback reconstructs the optimal path for a standard DTW cost matrix.
func traceback(cm *costMatrix, i, j int) Path {
	rev := make(Path, 0, i+j+1)
	for {
		rev = append(rev, Step{I: i, J: j})
		if i == 0 && j == 0 {
			break
		}
		switch {
		case i == 0:
			j--
		case j == 0:
			i--
		default:
			// Choose the predecessor with minimal cost.
			diag, up, left := cm.at(i-1, j-1), cm.at(i-1, j), cm.at(i, j-1)
			if diag <= up && diag <= left {
				i--
				j--
			} else if up <= left {
				i--
			} else {
				j--
			}
		}
	}
	reverse(rev)
	return rev
}

func reverse(p Path) {
	for l, r := 0, len(p)-1; l < r; l, r = l+1, r-1 {
		p[l], p[r] = p[r], p[l]
	}
}

func min3(a, b, c float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

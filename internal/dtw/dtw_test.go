package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAlignIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	r := Align(a, a, nil)
	if r.Distance != 0 {
		t.Errorf("self-distance = %v, want 0", r.Distance)
	}
	// Path should be the diagonal.
	if len(r.Path) != len(a) {
		t.Fatalf("path len = %d, want %d", len(r.Path), len(a))
	}
	for k, s := range r.Path {
		if s.I != k || s.J != k {
			t.Errorf("path[%d] = %+v, want diagonal", k, s)
		}
	}
}

func TestAlignEmpty(t *testing.T) {
	r := Align(nil, []float64{1}, nil)
	if r.Distance != 0 || r.Path != nil {
		t.Errorf("empty align = %+v", r)
	}
}

func TestAlignKnownSmall(t *testing.T) {
	// Classic example: warping absorbs a time shift.
	a := []float64{0, 0, 1, 2, 1, 0}
	b := []float64{0, 1, 2, 1, 0, 0}
	r := Align(a, b, nil)
	if r.Distance != 0 {
		t.Errorf("shifted distance = %v, want 0", r.Distance)
	}
}

func TestAlignStretched(t *testing.T) {
	// A stretched copy should have zero DTW distance.
	a := []float64{1, 2, 3}
	b := []float64{1, 1, 2, 2, 2, 3, 3}
	r := Align(a, b, nil)
	if r.Distance != 0 {
		t.Errorf("stretched distance = %v, want 0", r.Distance)
	}
}

func TestPathMonotonicityAndContinuity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := make([]float64, 30)
	b := make([]float64, 45)
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := range b {
		b[i] = rng.Float64()
	}
	r := Align(a, b, nil)
	checkPath(t, r.Path, len(a), len(b))
}

func checkPath(t *testing.T, p Path, m, n int) {
	t.Helper()
	if len(p) == 0 {
		t.Fatal("empty path")
	}
	if p[0].I != 0 {
		t.Errorf("path start I = %d", p[0].I)
	}
	last := p[len(p)-1]
	if last.I != m-1 || last.J != n-1 {
		t.Errorf("path end = %+v, want (%d,%d)", last, m-1, n-1)
	}
	for k := 1; k < len(p); k++ {
		di := p[k].I - p[k-1].I
		dj := p[k].J - p[k-1].J
		if di < 0 || dj < 0 || di > 1 || dj > 1 || (di == 0 && dj == 0) {
			t.Fatalf("illegal step %+v -> %+v", p[k-1], p[k])
		}
	}
}

func TestAlignBandedMatchesFullWhenWide(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
	}
	full := Align(a, b, nil)
	banded := AlignBanded(a, b, nil, 40)
	if !approx(full.Distance, banded.Distance, 1e-12) {
		t.Errorf("wide band %v != full %v", banded.Distance, full.Distance)
	}
}

func TestAlignBandedNarrowIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := make([]float64, 50)
	b := make([]float64, 50)
	for i := range a {
		a[i] = rng.Float64() * 10
		b[i] = rng.Float64() * 10
	}
	full := Align(a, b, nil)
	banded := AlignBanded(a, b, nil, 3)
	if banded.Distance < full.Distance-1e-9 {
		t.Errorf("banded %v < full %v: band cannot beat optimum", banded.Distance, full.Distance)
	}
}

func TestAlignBandedFallbackWhenDisconnected(t *testing.T) {
	// Band 0 with very unequal lengths can disconnect; must still return a
	// valid alignment (falls back to full DTW).
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := []float64{1, 8}
	r := AlignBanded(a, b, nil, 0)
	checkPath(t, r.Path, len(a), len(b))
}

func TestCustomDist(t *testing.T) {
	sq := func(a, b float64) float64 { d := a - b; return d * d }
	a := []float64{0, 10}
	b := []float64{0, 10}
	r := Align(a, b, sq)
	if r.Distance != 0 {
		t.Errorf("distance = %v", r.Distance)
	}
	r = Align([]float64{0}, []float64{3}, sq)
	if r.Distance != 9 {
		t.Errorf("squared distance = %v, want 9", r.Distance)
	}
}

// Property: DTW distance is symmetric.
func TestQuickSymmetry(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		if len(ra) == 0 || len(rb) == 0 || len(ra) > 40 || len(rb) > 40 {
			return true
		}
		a := make([]float64, len(ra))
		b := make([]float64, len(rb))
		for i, v := range ra {
			a[i] = float64(v)
		}
		for i, v := range rb {
			b[i] = float64(v)
		}
		return approx(Align(a, b, nil).Distance, Align(b, a, nil).Distance, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: self-distance is zero and distance is non-negative.
func TestQuickSelfZeroNonNegative(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		if len(ra) == 0 || len(ra) > 40 || len(rb) == 0 || len(rb) > 40 {
			return true
		}
		a := make([]float64, len(ra))
		for i, v := range ra {
			a[i] = float64(v)
		}
		b := make([]float64, len(rb))
		for i, v := range rb {
			b[i] = float64(v)
		}
		if Align(a, a, nil).Distance != 0 {
			return false
		}
		return Align(a, b, nil).Distance >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBandWindowMatchesPredicate: the per-row windows of the flat matrix
// must contain exactly the cells the dense band predicate admitted, for
// awkward shapes (unequal lengths, band 0, band wider than the matrix).
func TestBandWindowMatchesPredicate(t *testing.T) {
	for _, tc := range []struct{ m, n, band int }{
		{1, 1, 0}, {1, 9, 0}, {9, 1, 2}, {7, 5, 0}, {5, 7, 1},
		{12, 8, 3}, {8, 12, 3}, {6, 6, 100}, {10, 40, 2}, {40, 10, 2},
	} {
		for i := 0; i < tc.m; i++ {
			lo, hi := bandWindow(i, tc.m, tc.n, tc.band)
			diag := float64(i) * float64(tc.n-1) / float64(max(tc.m-1, 1))
			for j := 0; j < tc.n; j++ {
				want := math.Abs(float64(j)-diag) <= float64(tc.band)
				got := j >= lo && j < hi
				if want != got {
					t.Fatalf("m=%d n=%d band=%d: row %d col %d in-window=%v, want %v",
						tc.m, tc.n, tc.band, i, j, got, want)
				}
			}
		}
	}
}

// TestBandWindowExhaustive: the closed-form window bounds must admit
// exactly the cells of the dense predicate |j − diag| <= band for EVERY
// row of EVERY small shape — the proof that replacing the per-row linear
// scan changed nothing.
func TestBandWindowExhaustive(t *testing.T) {
	for m := 1; m <= 14; m++ {
		for n := 1; n <= 14; n++ {
			for band := 0; band <= n+2; band++ {
				for i := 0; i < m; i++ {
					lo, hi := bandWindow(i, m, n, band)
					diag := float64(i) * float64(n-1) / float64(max(m-1, 1))
					// The admitted set must be contiguous, so comparing
					// membership per column fully determines (lo, hi).
					for j := 0; j < n; j++ {
						want := math.Abs(float64(j)-diag) <= float64(band)
						got := j >= lo && j < hi
						if want != got {
							t.Fatalf("m=%d n=%d band=%d row=%d col=%d: in-window=%v, want %v (window [%d,%d))",
								m, n, band, i, j, got, want, lo, hi)
						}
					}
					if lo == hi && (lo != 0 || hi != 0) {
						t.Fatalf("m=%d n=%d band=%d row=%d: empty window not normalized: [%d,%d)", m, n, band, i, lo, hi)
					}
				}
			}
		}
	}
}

// denseBanded is the reference implementation: the full m×n matrix with
// out-of-band cells pinned to inf, exactly what the flat windowed matrix
// replaced.
func denseBanded(a, b []float64, d Dist, band int) float64 {
	m, n := len(a), len(b)
	cost := make([][]float64, m)
	for i := range cost {
		cost[i] = make([]float64, n)
		diag := float64(i) * float64(n-1) / float64(max(m-1, 1))
		for j := 0; j < n; j++ {
			if band >= 0 && math.Abs(float64(j)-diag) > float64(band) {
				cost[i][j] = inf
				continue
			}
			c := d(a[i], b[j])
			switch {
			case i == 0 && j == 0:
				cost[i][j] = c
			case i == 0:
				cost[i][j] = c + cost[i][j-1]
			case j == 0:
				cost[i][j] = c + cost[i-1][j]
			default:
				cost[i][j] = c + min3(cost[i-1][j], cost[i][j-1], cost[i-1][j-1])
			}
		}
	}
	return cost[m-1][n-1]
}

// TestAlignBandedMatchesDenseExhaustive: over every small (m, n, band) the
// windowed alignment must produce the dense matrix's distance (including
// the unconstrained fallback when the band disconnects the corners).
func TestAlignBandedMatchesDenseExhaustive(t *testing.T) {
	seq := func(n int, phase float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Sin(float64(i)*0.9+phase) + 0.25*math.Cos(float64(i)*2.3)
		}
		return out
	}
	for m := 1; m <= 9; m++ {
		for n := 1; n <= 9; n++ {
			a, b := seq(m, 0), seq(n, 0.7)
			for band := 0; band <= n+1; band++ {
				want := denseBanded(a, b, AbsDist, band)
				if want == inf {
					// Band too narrow to connect the corners; the windowed
					// path falls back to the unconstrained alignment.
					want = denseBanded(a, b, AbsDist, -1)
				}
				got := AlignBanded(a, b, AbsDist, band)
				if !approx(got.Distance, want, 1e-12) {
					t.Fatalf("m=%d n=%d band=%d: distance %v, dense %v", m, n, band, got.Distance, want)
				}
				checkPath(t, got.Path, m, n)
			}
		}
	}
}

// TestMatrixPoolBalanced: every Align/AlignBanded return path must release
// its pooled matrix — including the banded fallback recursion and
// degenerate inputs. Leaks would show as gets outrunning puts.
func TestMatrixPoolBalanced(t *testing.T) {
	gets0, puts0 := matrixGets.Load(), matrixPuts.Load()
	a := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	b := []float64{7, 6, 5, 4, 3, 2, 1, 0}
	Align(a, b, nil)
	AlignBanded(a, b, nil, 2)
	AlignBanded(a, b, nil, 0) // non-integer diagonals: fallback recursion
	Align(nil, b, nil)        // degenerate: no matrix at all
	gets, puts := matrixGets.Load()-gets0, matrixPuts.Load()-puts0
	if gets != puts {
		t.Errorf("matrix pool unbalanced: %d gets, %d puts — an Align path leaked its matrix", gets, puts)
	}
	if gets == 0 {
		t.Error("no matrix acquisitions counted — instrumentation broken")
	}
}

// TestAlignBandedAllocs: the banded alignment must run on the pooled flat
// matrix — a handful of allocations for the returned path, not one slice
// per matrix row.
func TestAlignBandedAllocs(t *testing.T) {
	a := make([]float64, 400)
	b := make([]float64, 400)
	for i := range a {
		a[i] = math.Sin(float64(i) / 7)
		b[i] = math.Sin(float64(i)/7 + 0.3)
	}
	AlignBanded(a, b, nil, 10) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		AlignBanded(a, b, nil, 10)
	})
	// The dense implementation allocated one row slice per sample (400+)
	// plus the matrix spine; the flat pooled matrix leaves only the
	// traceback path and pool bookkeeping.
	if allocs > 40 {
		t.Errorf("AlignBanded allocs/op = %v, want the pooled flat matrix (<= 40)", allocs)
	}
}

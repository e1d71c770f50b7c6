package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func seg(lo, hi, interval float64) Segment {
	return Segment{Lo: lo, Hi: hi, Interval: interval}
}

func TestSegDist(t *testing.T) {
	cases := []struct {
		a, b Segment
		want float64
	}{
		{seg(0, 1, 1), seg(2, 3, 1), 1}, // b above a
		{seg(2, 3, 1), seg(0, 1, 1), 1}, // a above b
		{seg(0, 2, 1), seg(1, 3, 1), 0}, // overlap
		{seg(0, 1, 1), seg(1, 2, 1), 0}, // touching
		{seg(0, 1, 1), seg(5, 9, 1), 4}, // far apart
		{seg(3, 3, 1), seg(3, 3, 1), 0}, // degenerate equal
		{seg(1, 1, 1), seg(4, 4, 1), 3}, // degenerate apart
	}
	for i, c := range cases {
		if got := SegDist(c.a, c.b); got != c.want {
			t.Errorf("case %d: SegDist = %v, want %v", i, got, c.want)
		}
	}
}

func TestQuickSegDistSymmetric(t *testing.T) {
	f := func(alo, ahi, blo, bhi int8) bool {
		a := seg(math.Min(float64(alo), float64(ahi)), math.Max(float64(alo), float64(ahi)), 1)
		b := seg(math.Min(float64(blo), float64(bhi)), math.Max(float64(blo), float64(bhi)), 1)
		return SegDist(a, b) == SegDist(b, a) && SegDist(a, b) >= 0 && SegDist(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// denseOpenEnd is the textbook open-end segment DTW, written independently
// of SegmentAligner: the full m×n matrix as [][]float64, filled row by row
// straight from the recurrence — no flat column-major storage, shared
// panels, cost pass, resumption or free-lists. Row 0 is a
// free start, the cheapest cell of the last row is the free end (ties
// prefer the latest end), and the traceback prefers the diagonal, then
// the vertical step.
func denseOpenEnd(p, q []Segment, opts SegmentAlignOpts) (Result, int, int) {
	return denseSegDTW(p, q, opts, true)
}

// denseSegDTW is denseOpenEnd, or with open false the closed-end
// alignment: the path runs from (0, 0) to (m−1, n−1) and consumes the
// whole query too.
func denseSegDTW(p, q []Segment, opts SegmentAlignOpts, open bool) (Result, int, int) {
	m, n := len(p), len(q)
	if m == 0 || n == 0 {
		return Result{}, 0, 0
	}
	vert := func(i int) float64 { return opts.Stiffness * p[i].Interval }
	horiz := func(j int) float64 { return opts.Stiffness * q[j].Interval }
	d := make([][]float64, m)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			c := math.Min(p[i].Interval, q[j].Interval) * SegDist(p[i], q[j])
			switch {
			case i == 0 && (open || j == 0):
				d[i][j] = c
			case i == 0:
				d[i][j] = c + d[i][j-1] + horiz(j)
			case j == 0:
				d[i][j] = c + d[i-1][j] + vert(i)
			default:
				d[i][j] = c + min3(d[i-1][j]+vert(i), d[i][j-1]+horiz(j), d[i-1][j-1])
			}
		}
	}
	end := n - 1
	if open {
		end = 0
		for j := 1; j < n; j++ {
			if d[m-1][j] <= d[m-1][end] {
				end = j
			}
		}
	}
	var path Path
	for i, j := m-1, end; ; {
		path = append(path, Step{I: i, J: j})
		if i == 0 && (open || j == 0) {
			break
		}
		if i == 0 {
			j--
			continue
		}
		if j == 0 {
			i--
			continue
		}
		up, left, diag := d[i-1][j]+vert(i), d[i][j-1]+horiz(j), d[i-1][j-1]
		switch {
		case diag <= up && diag <= left:
			i, j = i-1, j-1
		case up <= left:
			i--
		default:
			j--
		}
	}
	reverse(path)
	return Result{Distance: d[m-1][end], Path: path}, path[0].J, end
}

// alignOnce runs a fresh aligner over q and detaches the path from the
// aligner's scratch.
func alignOnce(p, q []Segment, opts SegmentAlignOpts) (Result, int, int) {
	res, s, e := NewSegmentAligner(p, opts).Align(q)
	res.Path = append(Path(nil), res.Path...)
	return res, s, e
}

// sameAlignment reports whether two open-end answers agree bit for bit:
// distance bits, matched interval and every path step.
func sameAlignment(r1 Result, s1, e1 int, r2 Result, s2, e2 int) bool {
	if math.Float64bits(r1.Distance) != math.Float64bits(r2.Distance) || s1 != s2 || e1 != e2 ||
		len(r1.Path) != len(r2.Path) {
		return false
	}
	for k := range r1.Path {
		if r1.Path[k] != r2.Path[k] {
			return false
		}
	}
	return true
}

func TestAlignSegmentsIdentical(t *testing.T) {
	p := []Segment{seg(0, 1, 0.1), seg(1, 2, 0.1), seg(2, 3, 0.1)}
	r, _, _ := alignOnce(p, p, SegmentAlignOpts{})
	if r.Distance != 0 {
		t.Errorf("self distance = %v", r.Distance)
	}
	if len(r.Path) != 3 {
		t.Errorf("path len = %d", len(r.Path))
	}
}

// TestAlignSegmentsEmpty: an aligner already holding columns answers an
// empty query with the zero result, and stays usable afterwards.
func TestAlignSegmentsEmpty(t *testing.T) {
	p := []Segment{seg(0, 1, 1), seg(1, 2, 1)}
	al := NewSegmentAligner(p, SegmentAlignOpts{})
	al.Align([]Segment{seg(0, 1, 1), seg(1, 2, 1), seg(2, 3, 1)})
	if r, s, e := al.Align(nil); r.Distance != 0 || r.Path != nil || s != 0 || e != 0 {
		t.Errorf("empty query = %+v %d %d", r, s, e)
	}
	if r, _, _ := al.Align(p); r.Distance != 0 || len(r.Path) == 0 {
		t.Errorf("realign after empty query = %+v", r)
	}
}

func TestAlignSegmentsIntervalWeighting(t *testing.T) {
	// Identical ranges but a long-interval mismatch should cost more than a
	// short-interval mismatch.
	p := []Segment{seg(0, 1, 1.0)}
	qNear := []Segment{seg(2, 3, 0.1)}
	qFar := []Segment{seg(2, 3, 1.0)}
	near, _, _ := alignOnce(p, qNear, SegmentAlignOpts{})
	far, _, _ := alignOnce(p, qFar, SegmentAlignOpts{})
	if !(near.Distance < far.Distance) {
		t.Errorf("interval weighting: near=%v far=%v", near.Distance, far.Distance)
	}
	// min(1.0, 0.1)*1 = 0.1 and min(1,1)*1 = 1.
	if !approx(near.Distance, 0.1, 1e-12) || !approx(far.Distance, 1.0, 1e-12) {
		t.Errorf("costs = %v, %v", near.Distance, far.Distance)
	}
}

func TestAlignSegmentsWarped(t *testing.T) {
	// q is p with each segment split in two; distance should stay zero
	// because ranges overlap along the warped path, and the latest-end tie
	// break consumes the whole query.
	p := []Segment{seg(0, 2, 0.2), seg(2, 4, 0.2), seg(4, 6, 0.2)}
	q := []Segment{
		seg(0, 1, 0.1), seg(1, 2, 0.1),
		seg(2, 3, 0.1), seg(3, 4, 0.1),
		seg(4, 5, 0.1), seg(5, 6, 0.1),
	}
	r, _, _ := alignOnce(p, q, SegmentAlignOpts{})
	if r.Distance != 0 {
		t.Errorf("warped distance = %v, want 0", r.Distance)
	}
	checkPath(t, r.Path, len(p), len(q))
}

func TestAlignSegmentsOpenEndLocatesVZone(t *testing.T) {
	// A "V" of ranges embedded among flat high segments.
	flat := seg(5.5, 6, 0.1)
	v := []Segment{seg(3, 4, 0.1), seg(1, 3, 0.1), seg(0, 1, 0.1), seg(1, 3, 0.1), seg(3, 4, 0.1)}
	q := []Segment{flat, flat, flat}
	q = append(q, v...)
	q = append(q, flat, flat, flat)

	for _, stiff := range []float64{0, 0.5} {
		r, start, end := alignOnce(v, q, SegmentAlignOpts{Stiffness: stiff})
		if r.Distance != 0 {
			t.Errorf("stiffness %v: distance = %v, want 0", stiff, r.Distance)
		}
		if start != 3 || end != 7 {
			t.Errorf("stiffness %v: match [%d,%d], want [3,7]", stiff, start, end)
		}
	}
}

// points turns a sampled profile into zero-width segments of equal
// interval, so segment DTW degenerates to per-sample DTW with cost
// interval·|a−b|.
func points(vs ...float64) []Segment {
	out := make([]Segment, len(vs))
	for i, v := range vs {
		out[i] = seg(v, v, 0.1)
	}
	return out
}

func TestAlignOpenEndFindsPattern(t *testing.T) {
	// Pattern embedded in the middle of a longer sequence.
	q := points(5, 5, 5, 1, 2, 3, 2, 1, 5, 5, 5, 5)
	p := points(1, 2, 3, 2, 1)
	r, start, end := alignOnce(p, q, SegmentAlignOpts{})
	if r.Distance != 0 {
		t.Errorf("embedded distance = %v, want 0", r.Distance)
	}
	if start != 3 || end != 7 {
		t.Errorf("match = [%d,%d], want [3,7]", start, end)
	}
}

func TestAlignOpenEndStretchedPattern(t *testing.T) {
	q := points(9, 9, 1, 1, 2, 2, 3, 3, 2, 2, 1, 1, 9, 9)
	p := points(1, 2, 3, 2, 1)
	r, start, end := alignOnce(p, q, SegmentAlignOpts{})
	if r.Distance != 0 {
		t.Errorf("distance = %v, want 0", r.Distance)
	}
	if start > 3 || end < 10 {
		t.Errorf("match [%d,%d] does not cover the stretched pattern", start, end)
	}
	if start < 2 || end > 11 {
		t.Errorf("match [%d,%d] spills outside the pattern", start, end)
	}
}

// Property: the open-end match distance never exceeds the full (closed-
// end) alignment distance — it optimizes over a superset of paths for the
// same pattern.
func TestQuickOpenEndUpperBoundedByFull(t *testing.T) {
	f := func(ra, rb []uint8, stiff uint8) bool {
		if len(ra) == 0 || len(ra) > 30 || len(rb) < len(ra) || len(rb) > 40 {
			return true
		}
		p, q := make([]float64, len(ra)), make([]float64, len(rb))
		for i, v := range ra {
			p[i] = float64(v) / 40
		}
		for i, v := range rb {
			q[i] = float64(v) / 40
		}
		opts := SegmentAlignOpts{Stiffness: float64(stiff%4) / 4}
		full, _, _ := denseSegDTW(points(p...), points(q...), opts, false)
		open, _, _ := alignOnce(points(p...), points(q...), opts)
		return open.Distance <= full.Distance+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAlignSegmentsOpenEndEmpty: every empty-operand shape answers the
// zero result, exactly like the textbook DP.
func TestAlignSegmentsOpenEndEmpty(t *testing.T) {
	one := []Segment{seg(0, 1, 1)}
	for _, c := range []struct{ p, q []Segment }{{nil, nil}, {one, nil}, {nil, one}} {
		r, s, e := alignOnce(c.p, c.q, SegmentAlignOpts{})
		wr, ws, we := denseOpenEnd(c.p, c.q, SegmentAlignOpts{})
		if r.Distance != 0 || r.Path != nil || s != 0 || e != 0 || !sameAlignment(r, s, e, wr, ws, we) {
			t.Errorf("empty (%d, %d) = %+v %d %d", len(c.p), len(c.q), r, s, e)
		}
	}
}

// gridSegs builds segments on a coarse grid — small integer ranges, two
// interval lengths — so equal-cost cells and exact ties between warping
// steps are common, exercising every tie-break of the recurrence, the
// free end and the traceback.
func gridSegs(rng *rand.Rand, n int) []Segment {
	out := make([]Segment, n)
	for i := range out {
		lo := float64(rng.Intn(4))
		out[i] = seg(lo, lo+float64(rng.Intn(3)), 0.25*float64(1+rng.Intn(2)))
	}
	return out
}

// TestSegmentAlignerMatchesDense pins a fresh aligner to the textbook DP
// on random references, queries and stiffnesses, half of them on a
// tie-heavy grid: every distance bit, matched interval and path step. The
// resumable, blocked and restored fills are each pinned to the plain
// aligner by their own tests, so this is the one independent oracle the
// whole family answers to.
func TestSegmentAlignerMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		gen := randSegs
		if trial%2 == 1 {
			gen = gridSegs
		}
		p := gen(rng, 1+rng.Intn(16))
		q := gen(rng, 1+rng.Intn(48))
		opts := SegmentAlignOpts{Stiffness: []float64{0, 0.5, rng.Float64()}[rng.Intn(3)]}
		r, s, e := alignOnce(p, q, opts)
		wr, ws, we := denseOpenEnd(p, q, opts)
		if !sameAlignment(r, s, e, wr, ws, we) {
			t.Fatalf("trial %d (m=%d n=%d stiffness %v): aligner (%v,%d,%d) != dense (%v,%d,%d)",
				trial, len(p), len(q), opts.Stiffness, r.Distance, s, e, wr.Distance, ws, we)
		}
	}
}

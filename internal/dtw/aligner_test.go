package dtw

import (
	"math/rand"
	"testing"
)

// randSegs builds a random segment list; intervals and ranges are in the
// magnitudes the profile segmenter produces.
func randSegs(rng *rand.Rand, n int) []Segment {
	out := make([]Segment, n)
	start := 0
	for i := range out {
		lo := rng.Float64() * 6
		w := 1 + rng.Intn(5)
		out[i] = Segment{
			Lo: lo, Hi: lo + rng.Float64()*2,
			Start: start, End: start + w,
			Interval: rng.Float64() * 0.5,
		}
		start += w
	}
	return out
}

// TestSegmentAlignerMatchesBatch grows a query segment by segment and
// asserts that the resumable aligner answers every prefix bit-identically
// to the textbook dense DP over the whole prefix — distance, path, and
// matched interval.
func TestSegmentAlignerMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		p := randSegs(rng, 1+rng.Intn(12))
		q := randSegs(rng, 1+rng.Intn(60))
		opts := SegmentAlignOpts{Stiffness: []float64{0, 0.5}[rng.Intn(2)]}
		al := NewSegmentAligner(p, opts)
		n := 0
		for n < len(q) {
			n += 1 + rng.Intn(7)
			if n > len(q) {
				n = len(q)
			}
			wantRes, wantS, wantE := denseOpenEnd(p, q[:n], opts)
			gotRes, gotS, gotE := al.Align(q[:n])
			if !sameAlignment(gotRes, gotS, gotE, wantRes, wantS, wantE) {
				t.Fatalf("trial %d n=%d: got (%v,%d,%d), want (%v,%d,%d)",
					trial, n, gotRes.Distance, gotS, gotE, wantRes.Distance, wantS, wantE)
			}
		}
	}
}

// TestSegmentAlignerRewrittenTail mutates the tail of a previously aligned
// query — the re-segmentation pattern an out-of-order read causes — and
// checks the aligner recomputes from the first changed column only, still
// matching the dense DP.
func TestSegmentAlignerRewrittenTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randSegs(rng, 8)
	q := randSegs(rng, 40)
	opts := SegmentAlignOpts{Stiffness: 0.5}
	al := NewSegmentAligner(p, opts)
	al.Align(q)
	if al.Cols() != 40 {
		t.Fatalf("cols = %d, want 40", al.Cols())
	}

	// Rewrite the last 5 segments, then shrink the query.
	q2 := append(append([]Segment(nil), q[:35]...), randSegs(rng, 5)...)
	wantRes, wantS, wantE := denseOpenEnd(p, q2, opts)
	gotRes, gotS, gotE := al.Align(q2)
	if !sameAlignment(gotRes, gotS, gotE, wantRes, wantS, wantE) {
		t.Fatal("rewritten tail diverged from the dense DP")
	}

	short := q2[:12]
	wantRes, wantS, wantE = denseOpenEnd(p, short, opts)
	gotRes, gotS, gotE = al.Align(short)
	if al.Cols() != 12 {
		t.Fatalf("cols after shrink = %d, want 12", al.Cols())
	}
	if !sameAlignment(gotRes, gotS, gotE, wantRes, wantS, wantE) {
		t.Fatal("shrunken query diverged from the dense DP")
	}
}

// TestSegmentAlignerEmpty pins the zero-value contract for an empty
// reference or query.
func TestSegmentAlignerEmpty(t *testing.T) {
	al := NewSegmentAligner(nil, SegmentAlignOpts{})
	if res, s, e := al.Align([]Segment{{Hi: 1, Interval: 1}}); res.Path != nil || s != 0 || e != 0 {
		t.Errorf("empty reference = %+v %d %d", res, s, e)
	}
	al = NewSegmentAligner([]Segment{{Hi: 1, Interval: 1}}, SegmentAlignOpts{})
	if res, s, e := al.Align(nil); res.Path != nil || s != 0 || e != 0 {
		t.Errorf("empty query = %+v %d %d", res, s, e)
	}
}

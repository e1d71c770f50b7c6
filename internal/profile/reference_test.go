package profile

import (
	"math"
	"testing"
)

func TestReferenceBasicShape(t *testing.T) {
	c := DefaultReferenceConfig(0.325)
	p, vs, ve, err := Reference(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Len() < 100 {
		t.Fatalf("reference too short: %d samples", p.Len())
	}
	if vs < 0 || ve > p.Len() || vs >= ve {
		t.Fatalf("V-zone bounds [%d,%d) of %d", vs, ve, p.Len())
	}
	// V-zone bottom at the middle of the profile (symmetric synthesis).
	bottom := p.VZoneBottomTime(vs, ve)
	mid := p.Times[p.Len()-1] / 2
	if math.Abs(bottom-mid) > 0.05 {
		t.Errorf("V bottom at %v, want ≈ %v", bottom, mid)
	}
	// Bottom phase = k·PerpDist mod 2π.
	k := 4 * math.Pi / c.Wavelength
	want := math.Mod(k*c.PerpDist, 2*math.Pi)
	minPhase := p.Phases[vs]
	for i := vs; i < ve; i++ {
		if p.Phases[i] < minPhase {
			minPhase = p.Phases[i]
		}
	}
	if math.Abs(minPhase-want) > 0.05 {
		t.Errorf("bottom phase = %v, want %v", minPhase, want)
	}
}

func TestReferenceVZoneHasNoWrap(t *testing.T) {
	p, vs, ve, err := Reference(DefaultReferenceConfig(0.325))
	if err != nil {
		t.Fatal(err)
	}
	for i := vs + 1; i < ve; i++ {
		if math.Abs(p.Phases[i]-p.Phases[i-1]) > math.Pi {
			t.Fatalf("wrap inside V-zone at %d", i)
		}
	}
}

func TestReferenceSymmetric(t *testing.T) {
	p, _, _, err := Reference(DefaultReferenceConfig(0.325))
	if err != nil {
		t.Fatal(err)
	}
	n := p.Len()
	for i := 0; i < n/2; i++ {
		a, b := p.Phases[i], p.Phases[n-1-i]
		// Circular difference: samples adjacent to a wrap may sit on
		// opposite sides of 2π on the two flanks.
		d := math.Abs(math.Mod(a-b+3*math.Pi, 2*math.Pi) - math.Pi)
		if d > 0.02 {
			t.Fatalf("asymmetry at %d: %v vs %v", i, a, b)
		}
	}
}

func TestReferencePeriodCount(t *testing.T) {
	c := DefaultReferenceConfig(0.325)
	p, _, _, err := Reference(c)
	if err != nil {
		t.Fatal(err)
	}
	// A period ends at each wrap discontinuity.
	periods := 1
	for i := 1; i < p.Len(); i++ {
		if math.Abs(p.Phases[i]-p.Phases[i-1]) > math.Pi {
			periods++
		}
	}
	// 4 requested; the synthesis convention produces 4±1 partial/complete.
	if periods < 3 || periods > 5 {
		t.Errorf("periods = %d, want ≈ 4", periods)
	}
}

func TestReferenceFartherTagShallowerV(t *testing.T) {
	// Key Y-ordering observation: larger perpendicular distance → smaller
	// phase changing rate → shallower, wider V-zone.
	mk := func(d float64) (*Profile, int, int) {
		c := DefaultReferenceConfig(0.325)
		c.PerpDist = d
		p, vs, ve, err := Reference(c)
		if err != nil {
			t.Fatal(err)
		}
		return p, vs, ve
	}
	near, nvs, nve := mk(0.30)
	far, fvs, fve := mk(0.60)
	// V-zone time width grows with distance.
	nw := near.Times[nve-1] - near.Times[nvs]
	fw := far.Times[fve-1] - far.Times[fvs]
	if fw <= nw {
		t.Errorf("far V (%v s) not wider than near V (%v s)", fw, nw)
	}
	// Phase change over a fixed window around the bottom is smaller for the
	// far tag (lower radial velocity → lower phase changing rate).
	riseOverWindow := func(p *Profile, vs, ve int, window float64) float64 {
		bt := p.VZoneBottomTime(vs, ve)
		at := func(tt float64) float64 {
			best, bp := math.Inf(1), 0.0
			for i := vs; i < ve; i++ {
				if d := math.Abs(p.Times[i] - tt); d < best {
					best, bp = d, p.Phases[i]
				}
			}
			return bp
		}
		return at(bt+window) - at(bt)
	}
	nearRise := riseOverWindow(near, nvs, nve, 1.0)
	farRise := riseOverWindow(far, fvs, fve, 1.0)
	if farRise >= nearRise {
		t.Errorf("far tag rises faster: %v vs %v rad/s over 1 s", farRise, nearRise)
	}
}

func TestReferenceSpeedScalesDuration(t *testing.T) {
	c := DefaultReferenceConfig(0.325)
	slow, _, _, _ := Reference(c)
	c.Speed = 0.2
	fast, _, _, err := Reference(c)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Duration() >= slow.Duration() {
		t.Errorf("faster sweep should be shorter: %v vs %v", fast.Duration(), slow.Duration())
	}
}

func TestReferenceValidation(t *testing.T) {
	bad := []ReferenceConfig{
		{Wavelength: 0, PerpDist: 0.3, Speed: 0.1, Periods: 4, SampleRate: 100},
		{Wavelength: 0.3, PerpDist: 0, Speed: 0.1, Periods: 4, SampleRate: 100},
		{Wavelength: 0.3, PerpDist: 0.3, Speed: 0, Periods: 4, SampleRate: 100},
		{Wavelength: 0.3, PerpDist: 0.3, Speed: 0.1, Periods: 0, SampleRate: 100},
		{Wavelength: 0.3, PerpDist: 0.3, Speed: 0.1, Periods: 4, SampleRate: 0},
	}
	for i, c := range bad {
		if _, _, _, err := Reference(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestReferenceMuShiftsBottom(t *testing.T) {
	c := DefaultReferenceConfig(0.325)
	c.Mu = 0
	p0, vs0, ve0, _ := Reference(c)
	c.Mu = 1
	p1, vs1, ve1, err := Reference(c)
	if err != nil {
		t.Fatal(err)
	}
	min0 := minIn(p0, vs0, ve0)
	min1 := minIn(p1, vs1, ve1)
	d := math.Mod(min1-min0+2*math.Pi, 2*math.Pi)
	if math.Abs(d-1) > 0.05 {
		t.Errorf("mu=1 shifted bottom by %v, want ≈ 1", d)
	}
}

func minIn(p *Profile, i, j int) float64 {
	m := p.Phases[i]
	for k := i; k < j; k++ {
		if p.Phases[k] < m {
			m = p.Phases[k]
		}
	}
	return m
}

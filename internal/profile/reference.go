package profile

import (
	"fmt"
	"math"
)

// ReferenceConfig describes the geometry used to synthesize a reference
// phase profile (Section 2.2): an antenna moving in a straight line at
// constant speed past a tag at a known perpendicular distance.
type ReferenceConfig struct {
	// Wavelength is the carrier wavelength in meters.
	Wavelength float64
	// PerpDist is the perpendicular distance from the tag to the antenna
	// trajectory (combining height and lateral offset), meters.
	PerpDist float64
	// Speed is the assumed steady antenna speed, m/s.
	Speed float64
	// Periods is the number of profile periods to include; the paper's
	// deployment study settles on 4. The V-zone is the central period; the
	// remaining periods are split across the two sides, so the synthesized
	// extent reaches the ceil(Periods/2)-th wrap on each side.
	Periods int
	// SampleRate is the synthesis rate in samples/second (reads/s); ~300
	// matches a lone tag under dense reader mode.
	SampleRate float64
	// Mu is the systematic phase offset μ baked into the reference;
	// usually 0 because DTW matching is offset-tolerant in range space.
	Mu float64
}

// DefaultReferenceConfig mirrors the paper's deployment: 30 cm nominal
// antenna-to-tag distance, 0.1 m/s sweep, 4 periods.
func DefaultReferenceConfig(wavelength float64) ReferenceConfig {
	return ReferenceConfig{
		Wavelength: wavelength,
		PerpDist:   0.30,
		Speed:      0.1,
		Periods:    4,
		SampleRate: 300,
	}
}

// Validate reports configuration errors. Every float field must be finite:
// the `<= 0` guards alone let NaN through (all NaN comparisons are false),
// and a NaN or +Inf wavelength would propagate NaN phases through every
// key downstream — silently scrambling the X order — or hang Reference's
// sampling loop on an infinite extent.
func (c ReferenceConfig) Validate() error {
	if !(c.Wavelength > 0) || math.IsInf(c.Wavelength, 1) {
		return fmt.Errorf("profile: wavelength %v not in (0, +Inf)", c.Wavelength)
	}
	if !(c.PerpDist > 0) || math.IsInf(c.PerpDist, 1) {
		return fmt.Errorf("profile: perpendicular distance %v not in (0, +Inf)", c.PerpDist)
	}
	if !(c.Speed > 0) || math.IsInf(c.Speed, 1) {
		return fmt.Errorf("profile: speed %v not in (0, +Inf)", c.Speed)
	}
	if c.Periods < 1 {
		return fmt.Errorf("profile: periods %d < 1", c.Periods)
	}
	if !(c.SampleRate > 0) || math.IsInf(c.SampleRate, 1) {
		return fmt.Errorf("profile: sample rate %v not in (0, +Inf)", c.SampleRate)
	}
	if math.IsNaN(c.Mu) || math.IsInf(c.Mu, 0) {
		return fmt.Errorf("profile: phase offset mu %v not finite", c.Mu)
	}
	return nil
}

// maxReferenceSamples bounds the synthesized reference length. The paper's
// deployment produces ~4 periods × a few seconds × ~300 reads/s — well
// under ten thousand samples; the cap only exists to turn degenerate
// geometry into an error instead of an unbounded sampling loop.
const maxReferenceSamples = 4 << 20

// Reference synthesizes the reference phase profile and reports the sample
// index range [vzStart, vzEnd) of its V-zone (the central period, whose
// boundaries are known a priori — that is the point of the reference).
//
// Geometry: the antenna position along its line is x(t) = Speed·t with the
// perpendicular foot of the tag at x = 0, so distance d(t) = √(PerpDist² +
// x²) and phase = (4π/λ·d + μ) mod 2π. The bottom phase is φ0 = (4π/λ·
// PerpDist + μ) mod 2π; phase wraps occur where 4π/λ·d + μ crosses a
// multiple of 2π, i.e. at distances d_j = PerpDist + ((2π−φ0) + (j−1)·2π)/
// (4π/λ) for j = 1, 2, ... — the V-zone is everything inside the first
// wrap (j = 1) on each side and is wrap-free by construction.
func Reference(c ReferenceConfig) (*Profile, int, int, error) {
	if err := c.Validate(); err != nil {
		return nil, 0, 0, err
	}
	k := 4 * math.Pi / c.Wavelength
	phi0 := math.Mod(k*c.PerpDist+c.Mu, 2*math.Pi)
	if phi0 < 0 {
		phi0 += 2 * math.Pi
	}
	wrapDist := func(j int) float64 {
		return c.PerpDist + ((2*math.Pi-phi0)+float64(j-1)*2*math.Pi)/k
	}
	// Extent: reach the h-th wrap each side, h = ceil(Periods/2).
	h := (c.Periods + 1) / 2
	dEdge := wrapDist(h)
	xEdge := math.Sqrt(dEdge*dEdge - c.PerpDist*c.PerpDist)
	tEdge := xEdge / c.Speed

	// Degenerate-but-finite geometry (a denormal speed, a near-zero
	// wavelength, an enormous perpendicular distance) can push the extent
	// to ~1e300 seconds: every value is finite, yet the sampling loop
	// below would effectively never terminate. Refuse anything beyond a
	// generous sample budget instead of looping.
	if samples := 2 * tEdge * c.SampleRate; !(samples < maxReferenceSamples) {
		return nil, 0, 0, fmt.Errorf("profile: degenerate reference geometry needs %g samples (max %d)", samples, maxReferenceSamples)
	}

	// First wrap each side bounds the V-zone.
	dV := wrapDist(1)
	xV := math.Sqrt(dV*dV-c.PerpDist*c.PerpDist) * (1 - 1e-12)

	dt := 1 / c.SampleRate
	p := &Profile{}
	vzStart, vzEnd := -1, -1
	for t := -tEdge; t <= tEdge+dt/2; t += dt {
		x := c.Speed * t
		d := math.Hypot(c.PerpDist, x)
		phase := math.Mod(k*d+c.Mu, 2*math.Pi)
		if phase < 0 {
			phase += 2 * math.Pi
		}
		p.Times = append(p.Times, t+tEdge) // shift to start at 0
		p.Phases = append(p.Phases, phase)
		idx := len(p.Times) - 1
		if x >= -xV && vzStart < 0 {
			vzStart = idx
		}
		if x <= xV {
			vzEnd = idx + 1
		}
	}
	if vzStart < 0 || vzEnd <= vzStart {
		return nil, 0, 0, fmt.Errorf("profile: degenerate reference (no V-zone)")
	}
	return p, vzStart, vzEnd, nil
}

// VZoneBottomTime returns the time of the phase minimum within [start,end)
// of the profile — for a synthetic reference this is the perpendicular
// time.
func (p *Profile) VZoneBottomTime(start, end int) float64 {
	best := start
	for i := start + 1; i < end; i++ {
		if p.Phases[i] < p.Phases[best] {
			best = i
		}
	}
	return p.Times[best]
}

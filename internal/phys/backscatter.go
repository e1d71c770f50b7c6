package phys

import (
	"math"
	"math/cmplx"
)

// PhaseOffsets collects the hardware-dependent phase rotations of Eq. 1:
// θ = (2π·2l/λ + μ) mod 2π with μ = θTx + θRx + θTAG. The reader terms are
// per-channel in real hardware; we model them as per-channel constants
// derived from a base value.
type PhaseOffsets struct {
	// ReaderTx is θTx, the transmit-circuit rotation in radians.
	ReaderTx float64
	// ReaderRx is θRx, the receive-circuit rotation in radians.
	ReaderRx float64
	// Tag is θTAG, the tag reflection characteristic in radians.
	Tag float64
}

// Mu returns the total systematic offset μ.
func (p PhaseOffsets) Mu() float64 { return p.ReaderTx + p.ReaderRx + p.Tag }

// WrapPhase reduces an angle to [0, 2π).
func WrapPhase(theta float64) float64 {
	t := math.Mod(theta, 2*math.Pi)
	if t < 0 {
		t += 2 * math.Pi
	}
	if t >= 2*math.Pi {
		t -= 2 * math.Pi
	}
	return t
}

// LinkBudget holds the power parameters of the backscatter link.
type LinkBudget struct {
	// TxPowerDBm is the reader transmit power (30 dBm typical for R420).
	TxPowerDBm float64
	// ReaderGainDBi is the reader antenna boresight gain.
	ReaderGainDBi float64
	// TagGainDBi is the tag antenna gain (dipole ≈ 2 dBi).
	TagGainDBi float64
	// BackscatterLossDB lumps the losses of the tag reflection path:
	// modulation loss (~6 dB), polarization mismatch between a linear tag
	// and circular reader antenna (~3 dB each way), chip impedance
	// mismatch and cable losses. Calibrated so a tag at 1 m reports
	// ≈ −50 dBm, matching field measurements with an R420.
	BackscatterLossDB float64
	// SensitivityDBm is the reader receive sensitivity; reads below this
	// RSSI are lost (R420 ≈ -84 dBm).
	SensitivityDBm float64
	// TagActivationDBm is the forward-link power a passive tag needs to
	// wake up and respond (typical inlays: −14 to −18 dBm). The forward
	// link, not reader sensitivity, bounds the reading zone of a passive
	// system.
	TagActivationDBm float64
}

// DefaultLinkBudget matches an ImpinJ R420 with a 6 dBi panel antenna and
// common inlay tags.
func DefaultLinkBudget() LinkBudget {
	return LinkBudget{
		TxPowerDBm:        30,
		ReaderGainDBi:     6,
		TagGainDBi:        2,
		BackscatterLossDB: 28,
		SensitivityDBm:    -84,
		TagActivationDBm:  -14,
	}
}

// ForwardPower returns the one-way power delivered to a tag at distance d
// (dBm), before antenna-pattern rolloff.
func (lb LinkBudget) ForwardPower(d, wavelength float64) float64 {
	if d <= 0 {
		d = 1e-3
	}
	fspl := 20 * math.Log10(4*math.Pi*d/wavelength)
	return lb.TxPowerDBm + lb.ReaderGainDBi + lb.TagGainDBi - fspl
}

// Activates reports whether the delivered forward power wakes the tag.
func (lb LinkBudget) Activates(forwardDBm float64) bool {
	return forwardDBm >= lb.TagActivationDBm
}

// FreeSpaceRSSI computes the backscatter received power in dBm over a
// distance d with the given wavelength, ignoring multipath. The round-trip
// free-space loss appears twice (reader→tag and tag→reader), hence the
// fourth-power distance dependence characteristic of backscatter links.
func (lb LinkBudget) FreeSpaceRSSI(d, wavelength float64) float64 {
	if d <= 0 {
		d = 1e-3
	}
	fspl := 20 * math.Log10(4*math.Pi*d/wavelength) // one-way, dB
	return lb.TxPowerDBm + 2*lb.ReaderGainDBi + 2*lb.TagGainDBi -
		2*fspl - lb.BackscatterLossDB
}

// ChannelRSSI converts a complex one-way channel gain h (relative to free
// space at distance d) into received power: the backscatter link squares the
// one-way channel, so power scales with |h|^4.
func (lb LinkBudget) ChannelRSSI(d, wavelength float64, h complex128) float64 {
	base := lb.FreeSpaceRSSI(d, wavelength)
	mag := cmplx.Abs(h)
	if mag <= 0 {
		return math.Inf(-1)
	}
	return base + 40*math.Log10(mag)
}

// Readable reports whether a read at the given RSSI is above sensitivity.
func (lb LinkBudget) Readable(rssiDBm float64) bool {
	return rssiDBm >= lb.SensitivityDBm
}

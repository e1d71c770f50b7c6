package stpp

import "testing"

// TestDetectBlockNeverEmpty is the regression guard for detection run
// sizing: whatever the reference size — zero, negative, tiny or huge —
// the chosen run must stay within its clamp, so the ForRuns fan-out never
// sees an empty run and every dirty tag is detected. The budget is fixed,
// but the run size still follows the reference: a wider segment window
// means fewer reference segments, so more tags fit one run.
func TestDetectBlockNeverEmpty(t *testing.T) {
	for _, m := range []int{-5, 0, 1, 7, 335, 100000, 1 << 28} {
		if b := detectBlock(m); b < minDetectBlock || b > maxDetectBlock {
			t.Fatalf("detectBlock(%d) = %d, want within [%d, %d]",
				m, b, minDetectBlock, maxDetectBlock)
		}
	}
	prev := 0
	for _, w := range []int{3, 5, 8} {
		cfg := DefaultConfig(0.33)
		cfg.Window = w
		loc, err := NewLocalizer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := loc.DetectBlock()
		if b <= prev || b >= maxDetectBlock {
			t.Fatalf("w=%d (%d reference segments): run of %d tags, want above %d and unclamped",
				w, len(loc.det.refSegs), b, prev)
		}
		prev = b
	}
}

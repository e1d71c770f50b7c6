package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/epcgen2"
)

func epcs(serials ...uint64) []epcgen2.EPC {
	out := make([]epcgen2.EPC, len(serials))
	for i, s := range serials {
		out[i] = epcgen2.NewEPC(s)
	}
	return out
}

func TestOrderingAccuracyPaperExample(t *testing.T) {
	// The paper's example: truth 1-2-3-4-5, detected 1-2-4-3-5 → 3/5.
	want := epcs(1, 2, 3, 4, 5)
	got := epcs(1, 2, 4, 3, 5)
	acc, err := OrderingAccuracy(got, want)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-0.6) > 1e-12 {
		t.Errorf("accuracy = %v, want 0.6", acc)
	}
}

func TestOrderingAccuracyPerfectAndWorst(t *testing.T) {
	w := epcs(1, 2, 3)
	if acc, _ := OrderingAccuracy(w, w); acc != 1 {
		t.Errorf("perfect accuracy = %v", acc)
	}
	if acc, _ := OrderingAccuracy(epcs(2, 3, 1), w); acc != 0 {
		t.Errorf("rotated accuracy = %v", acc)
	}
}

func TestOrderingAccuracyErrors(t *testing.T) {
	if _, err := OrderingAccuracy(epcs(1), epcs(1, 2)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := OrderingAccuracy(nil, nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := OrderingAccuracy(epcs(1, 1), epcs(1, 2)); err == nil {
		t.Error("duplicate in got accepted")
	}
	if _, err := OrderingAccuracy(epcs(1, 2), epcs(1, 1)); err == nil {
		t.Error("duplicate in want accepted")
	}
	if _, err := OrderingAccuracy(epcs(1, 3), epcs(1, 2)); err == nil {
		t.Error("foreign EPC accepted")
	}
}

func TestKendallTau(t *testing.T) {
	w := epcs(1, 2, 3, 4)
	if tau, _ := KendallTau(w, w); tau != 1 {
		t.Errorf("identity tau = %v", tau)
	}
	rev := epcs(4, 3, 2, 1)
	if tau, _ := KendallTau(rev, w); tau != -1 {
		t.Errorf("reversed tau = %v", tau)
	}
	// One adjacent swap in 4 elements: 5 concordant, 1 discordant → 4/6.
	if tau, _ := KendallTau(epcs(2, 1, 3, 4), w); math.Abs(tau-4.0/6) > 1e-12 {
		t.Errorf("swap tau = %v", tau)
	}
	if tau, _ := KendallTau(epcs(1), epcs(1)); tau != 1 {
		t.Errorf("singleton tau = %v", tau)
	}
}

func TestMisplacedNone(t *testing.T) {
	cat := epcs(1, 2, 3, 4, 5)
	flagged, err := Misplaced(cat, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(flagged) != 0 {
		t.Errorf("flagged %v on in-order shelf", flagged)
	}
}

func TestMisplacedOne(t *testing.T) {
	cat := epcs(1, 2, 3, 4, 5)
	// Book 5 moved between 1 and 2.
	detected := epcs(1, 5, 2, 3, 4)
	flagged, err := Misplaced(detected, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(flagged) != 1 || flagged[0] != epcn(5) {
		t.Errorf("flagged = %v, want [5]", flagged)
	}
	if !DetectionSuccess(flagged, epcs(5)) {
		t.Error("detection success should hold")
	}
}

func epcn(s uint64) epcgen2.EPC { return epcgen2.NewEPC(s) }

func TestMisplacedTwo(t *testing.T) {
	cat := epcs(1, 2, 3, 4, 5, 6, 7, 8)
	// Books 2 and 7 swapped far from home.
	detected := epcs(1, 7, 3, 4, 5, 6, 2, 8)
	flagged, err := Misplaced(detected, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !DetectionSuccess(flagged, epcs(2, 7)) {
		t.Errorf("flagged = %v, want to include 2 and 7", flagged)
	}
	// LIS keeps 6 books, so exactly the two movers are flagged.
	if len(flagged) != 2 {
		t.Errorf("flagged %d books, want 2", len(flagged))
	}
}

func TestMisplacedForeign(t *testing.T) {
	if _, err := Misplaced(epcs(1, 9), epcs(1, 2)); err == nil {
		t.Error("foreign EPC accepted")
	}
}

func TestDetectionSuccessNegative(t *testing.T) {
	if DetectionSuccess(epcs(1), epcs(1, 2)) {
		t.Error("missing mover reported as success")
	}
	if !DetectionSuccess(epcs(1, 2, 3), epcs(2)) {
		t.Error("superset flagging should still succeed")
	}
	if !DetectionSuccess(nil, nil) {
		t.Error("nothing moved, nothing flagged → success")
	}
}

func TestLISIndices(t *testing.T) {
	cases := []struct {
		xs   []int
		want int // LIS length
	}{
		{[]int{1, 2, 3}, 3},
		{[]int{3, 2, 1}, 1},
		{[]int{2, 1, 3, 4}, 3},
		{[]int{10, 1, 2, 11, 3}, 3},
		{[]int{5}, 1},
		{nil, 0},
	}
	for i, c := range cases {
		got := lisIndices(c.xs)
		if len(got) != c.want {
			t.Errorf("case %d: LIS len = %d, want %d", i, len(got), c.want)
			continue
		}
		for j := 1; j < len(got); j++ {
			if got[j] <= got[j-1] || c.xs[got[j]] <= c.xs[got[j-1]] {
				t.Errorf("case %d: not increasing: %v", i, got)
			}
		}
	}
}

// Property: accuracy and tau agree on the extremes and stay in range.
func TestQuickMetricsRanges(t *testing.T) {
	f := func(perm []uint8) bool {
		if len(perm) < 2 || len(perm) > 20 {
			return true
		}
		// Build a permutation from the raw bytes by stable dedup.
		seen := map[uint8]bool{}
		var serials []uint64
		for _, p := range perm {
			if !seen[p] {
				seen[p] = true
				serials = append(serials, uint64(p)+1)
			}
		}
		if len(serials) < 2 {
			return true
		}
		got := epcs(serials...)
		// want = sorted serials
		sorted := append([]uint64(nil), serials...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] < sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		want := epcs(sorted...)
		acc, err := OrderingAccuracy(got, want)
		if err != nil {
			return false
		}
		tau, err := KendallTau(got, want)
		if err != nil {
			return false
		}
		return acc >= 0 && acc <= 1 && tau >= -1 && tau <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: misplaced-set size is n − LIS length and detection of the
// empty move set always succeeds.
func TestQuickMisplacedConsistent(t *testing.T) {
	f := func(perm []uint8) bool {
		seen := map[uint8]bool{}
		var serials []uint64
		for _, p := range perm {
			if !seen[p] {
				seen[p] = true
				serials = append(serials, uint64(p)+1)
			}
		}
		if len(serials) == 0 || len(serials) > 25 {
			return true
		}
		detected := epcs(serials...)
		sorted := append([]uint64(nil), serials...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] < sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		cat := epcs(sorted...)
		flagged, err := Misplaced(detected, cat)
		if err != nil {
			return false
		}
		return DetectionSuccess(flagged, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

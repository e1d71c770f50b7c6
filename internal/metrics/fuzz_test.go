package metrics

import (
	"math"
	"testing"

	"repro/internal/epcgen2"
)

// --- brute-force reference implementations ---
//
// Deliberately different formulations from the package code: accuracy by
// direct positional scan over the want slice (no position map), tau by
// comparing every unordered EPC pair's relative order in the two slices
// (no rank array), LIS by exponential subset search for small n. The
// table-driven and fuzz tests below hold the real implementations to
// these.

func accuracyRef(got, want []epcgen2.EPC) float64 {
	correct := 0
	for i := range got {
		if got[i] == want[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(got))
}

func indexOf(s []epcgen2.EPC, e epcgen2.EPC) int {
	for i := range s {
		if s[i] == e {
			return i
		}
	}
	return -1
}

func tauRef(got, want []epcgen2.EPC) float64 {
	n := len(got)
	if n < 2 {
		return 1
	}
	net := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// got[i] precedes got[j]; concordant iff it also does in want.
			if indexOf(want, got[i]) < indexOf(want, got[j]) {
				net++
			} else {
				net--
			}
		}
	}
	return float64(net) / float64(n*(n-1)/2)
}

// lisLenRef finds the longest strictly-increasing subsequence length by
// trying every subset (n ≤ ~15).
func lisLenRef(xs []int) int {
	best := 0
	for mask := 0; mask < 1<<len(xs); mask++ {
		prev := math.MinInt
		length := 0
		ok := true
		for i := 0; i < len(xs) && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			if xs[i] <= prev {
				ok = false
				break
			}
			prev = xs[i]
			length++
		}
		if ok && length > best {
			best = length
		}
	}
	return best
}

// permFromBytes builds a duplicate-free EPC sequence from raw fuzz bytes
// (stable dedup), plus its sorted counterpart as the reference order.
func permFromBytes(data []byte) (got, want []epcgen2.EPC) {
	seen := map[byte]bool{}
	var serials []uint64
	for _, b := range data {
		if len(serials) >= 12 {
			break
		}
		if !seen[b] {
			seen[b] = true
			serials = append(serials, uint64(b)+1)
		}
	}
	got = make([]epcgen2.EPC, len(serials))
	for i, s := range serials {
		got[i] = epcgen2.NewEPC(s)
	}
	sorted := append([]uint64(nil), serials...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	want = make([]epcgen2.EPC, len(sorted))
	for i, s := range sorted {
		want[i] = epcgen2.NewEPC(s)
	}
	return got, want
}

// TestMetricsAgainstBruteForce: table of permutations, each checked
// against the reference implementations rather than hand-computed values.
func TestMetricsAgainstBruteForce(t *testing.T) {
	cases := [][]uint64{
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{2, 1, 4, 3, 6, 5},
		{3, 1, 2},
		{7, 2, 9, 4, 1, 8, 3},
		{1, 3, 2, 5, 4, 7, 6, 9, 8},
		{42},
		{2, 1},
	}
	for _, serials := range cases {
		got := epcs(serials...)
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
			t.Fatalf("%v: %v", serials, err)
		}
		if ref := accuracyRef(got, want); math.Abs(acc-ref) > 1e-12 {
			t.Errorf("%v: accuracy %v, brute force %v", serials, acc, ref)
		}
		tau, err := KendallTau(got, want)
		if err != nil {
			t.Fatalf("%v: %v", serials, err)
		}
		if ref := tauRef(got, want); math.Abs(tau-ref) > 1e-12 {
			t.Errorf("%v: tau %v, brute force %v", serials, tau, ref)
		}
		flagged, err := Misplaced(got, want)
		if err != nil {
			t.Fatalf("%v: %v", serials, err)
		}
		ranks := make([]int, len(got))
		for i, e := range got {
			ranks[i] = indexOf(want, e)
		}
		if wantFlagged := len(got) - lisLenRef(ranks); len(flagged) != wantFlagged {
			t.Errorf("%v: flagged %d, brute-force LIS says %d", serials, len(flagged), wantFlagged)
		}
	}
}

// TestMetricsErrorPaths: duplicates, disjoint EPC sets and degenerate
// sizes must error (or define a value) consistently across the rank
// metrics — no silent garbage.
func TestMetricsErrorPaths(t *testing.T) {
	type metricFn struct {
		name string
		fn   func(got, want []epcgen2.EPC) (float64, error)
	}
	fns := []metricFn{
		{"OrderingAccuracy", OrderingAccuracy},
		{"KendallTau", KendallTau},
	}
	bad := []struct {
		name      string
		got, want []epcgen2.EPC
	}{
		{"length mismatch", epcs(1), epcs(1, 2)},
		{"duplicate in got", epcs(1, 1), epcs(1, 2)},
		{"duplicate in want", epcs(1, 2), epcs(1, 1)},
		{"disjoint sets", epcs(1, 2), epcs(3, 4)},
		{"partial overlap", epcs(1, 3), epcs(1, 2)},
	}
	for _, m := range fns {
		for _, c := range bad {
			if _, err := m.fn(c.got, c.want); err == nil {
				t.Errorf("%s accepted %s", m.name, c.name)
			}
		}
	}
	// n < 2: accuracy rejects empty (undefined fraction), tau defines the
	// degenerate cases as perfectly correlated.
	if _, err := OrderingAccuracy(nil, nil); err == nil {
		t.Error("OrderingAccuracy accepted empty orders")
	}
	if tau, err := KendallTau(nil, nil); err != nil || tau != 1 {
		t.Errorf("KendallTau(empty) = %v, %v; want 1, nil", tau, err)
	}
	if tau, err := KendallTau(epcs(9), epcs(9)); err != nil || tau != 1 {
		t.Errorf("KendallTau(singleton) = %v, %v; want 1, nil", tau, err)
	}
	// A singleton that is not the same EPC is disjoint, not trivially τ=1.
	if _, err := KendallTau(epcs(1), epcs(2)); err == nil {
		t.Error("KendallTau accepted disjoint singletons")
	}
	if _, err := Misplaced(epcs(1, 9), epcs(1, 2)); err == nil {
		t.Error("Misplaced accepted a foreign EPC")
	}
}

// FuzzMetrics drives OrderingAccuracy, KendallTau and Misplaced with
// arbitrary permutations, holding them to the brute-force references and
// their invariants: values in range, τ symmetry under argument swap, LIS
// complement size, and error-free on every valid permutation.
func FuzzMetrics(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{5, 4, 3, 2, 1})
	f.Add([]byte{10, 1, 7, 3})
	f.Add([]byte{})
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := permFromBytes(data)
		if len(got) == 0 {
			return
		}
		if len(got) >= 2 {
			acc, err := OrderingAccuracy(got, want)
			if err != nil {
				t.Fatalf("valid permutation rejected: %v", err)
			}
			if ref := accuracyRef(got, want); math.Abs(acc-ref) > 1e-12 {
				t.Fatalf("accuracy %v, brute force %v", acc, ref)
			}
			if acc < 0 || acc > 1 {
				t.Fatalf("accuracy %v out of range", acc)
			}
		}
		tau, err := KendallTau(got, want)
		if err != nil {
			t.Fatalf("valid permutation rejected: %v", err)
		}
		if ref := tauRef(got, want); math.Abs(tau-ref) > 1e-12 {
			t.Fatalf("tau %v, brute force %v", tau, ref)
		}
		if tau < -1 || tau > 1 {
			t.Fatalf("tau %v out of range", tau)
		}
		// τ is symmetric: correlating want against got measures the same
		// disorder.
		rev, err := KendallTau(want, got)
		if err != nil || math.Abs(rev-tau) > 1e-12 {
			t.Fatalf("tau asymmetric: %v vs %v (%v)", tau, rev, err)
		}
		flagged, err := Misplaced(got, want)
		if err != nil {
			t.Fatalf("valid permutation rejected: %v", err)
		}
		ranks := make([]int, len(got))
		for i, e := range got {
			ranks[i] = indexOf(want, e)
		}
		if wantFlagged := len(got) - lisLenRef(ranks); len(flagged) != wantFlagged {
			t.Fatalf("flagged %d, brute-force LIS says %d", len(flagged), wantFlagged)
		}
		if !DetectionSuccess(flagged, flagged) {
			t.Fatal("DetectionSuccess(flagged, flagged) = false")
		}
	})
}

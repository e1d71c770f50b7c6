// Package metrics implements the paper's evaluation measures: ordering
// accuracy (Equation 2), rank-correlation diagnostics, misplaced-object
// detection, and ordering-latency statistics.
package metrics

import (
	"fmt"
	"sort"

	"repro/internal/epcgen2"
)

// OrderingAccuracy is Equation 2: the fraction of tags whose detected
// position equals their actual position. got and want must be permutations
// of the same EPC set; an error is returned otherwise.
func OrderingAccuracy(got, want []epcgen2.EPC) (float64, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("metrics: order lengths differ: %d vs %d", len(got), len(want))
	}
	if len(got) == 0 {
		return 0, fmt.Errorf("metrics: empty orders")
	}
	pos := make(map[epcgen2.EPC]int, len(want))
	for i, e := range want {
		if _, dup := pos[e]; dup {
			return 0, fmt.Errorf("metrics: duplicate EPC %v in want", e)
		}
		pos[e] = i
	}
	correct := 0
	seen := make(map[epcgen2.EPC]bool, len(got))
	for i, e := range got {
		w, ok := pos[e]
		if !ok {
			return 0, fmt.Errorf("metrics: EPC %v not in want", e)
		}
		if seen[e] {
			return 0, fmt.Errorf("metrics: duplicate EPC %v in got", e)
		}
		seen[e] = true
		if w == i {
			correct++
		}
	}
	return float64(correct) / float64(len(got)), nil
}

// KendallTau computes the Kendall rank correlation between the detected
// and actual orders: +1 for identical order, −1 for fully reversed.
// Inputs must be permutations of the same duplicate-free EPC set; fewer
// than two elements are trivially correlated (τ = 1).
func KendallTau(got, want []epcgen2.EPC) (float64, error) {
	n := len(got)
	if n != len(want) {
		return 0, fmt.Errorf("metrics: order lengths differ: %d vs %d", n, len(want))
	}
	pos := make(map[epcgen2.EPC]int, n)
	for i, e := range want {
		if _, dup := pos[e]; dup {
			return 0, fmt.Errorf("metrics: duplicate EPC %v in want", e)
		}
		pos[e] = i
	}
	ranks := make([]int, n)
	seen := make(map[epcgen2.EPC]bool, n)
	for i, e := range got {
		w, ok := pos[e]
		if !ok {
			return 0, fmt.Errorf("metrics: EPC %v not in want", e)
		}
		if seen[e] {
			return 0, fmt.Errorf("metrics: duplicate EPC %v in got", e)
		}
		seen[e] = true
		ranks[i] = w
	}
	if n < 2 {
		return 1, nil
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case ranks[i] < ranks[j]:
				concordant++
			case ranks[i] > ranks[j]:
				discordant++
			}
		}
	}
	total := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(total), nil
}

// Misplaced identifies the out-of-order elements of a detected sequence
// relative to a catalog order: the elements NOT in a longest increasing
// subsequence of catalog positions. For a shelf scan, these are the books
// flagged as misplaced.
func Misplaced(detected, catalog []epcgen2.EPC) ([]epcgen2.EPC, error) {
	pos := make(map[epcgen2.EPC]int, len(catalog))
	for i, e := range catalog {
		pos[e] = i
	}
	ranks := make([]int, len(detected))
	for i, e := range detected {
		w, ok := pos[e]
		if !ok {
			return nil, fmt.Errorf("metrics: EPC %v not in catalog", e)
		}
		ranks[i] = w
	}
	keep := lisIndices(ranks)
	inLIS := make([]bool, len(detected))
	for _, i := range keep {
		inLIS[i] = true
	}
	var out []epcgen2.EPC
	for i, e := range detected {
		if !inLIS[i] {
			out = append(out, e)
		}
	}
	return out, nil
}

// lisIndices returns the indices of one longest strictly-increasing
// subsequence of xs (patience sorting with parent links, O(n log n)).
func lisIndices(xs []int) []int {
	n := len(xs)
	if n == 0 {
		return nil
	}
	tails := make([]int, 0, n) // indices of the smallest tail per length
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	for i, x := range xs {
		j := sort.Search(len(tails), func(k int) bool { return xs[tails[k]] >= x })
		if j > 0 {
			parent[i] = tails[j-1]
		}
		if j == len(tails) {
			tails = append(tails, i)
		} else {
			tails[j] = i
		}
	}
	var out []int
	for i := tails[len(tails)-1]; i >= 0; i = parent[i] {
		out = append(out, i)
	}
	// Reverse in place.
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return out
}

// DetectionSuccess reports whether every truly moved object was flagged as
// misplaced (the paper's Table 2 criterion).
func DetectionSuccess(flagged, moved []epcgen2.EPC) bool {
	set := make(map[epcgen2.EPC]bool, len(flagged))
	for _, e := range flagged {
		set[e] = true
	}
	for _, e := range moved {
		if !set[e] {
			return false
		}
	}
	return true
}

package deploy

import (
	"slices"

	"repro/internal/epcgen2"
)

// MergeOrders stitches per-zone relative orders — given in zone order,
// left to right — into one global order containing every tag exactly once.
//
// Adjacent orders are merged pairwise. Tags appearing in both orders
// (overlap tags read by both readers) act as anchors: the longest set of
// overlap tags on which the two orders agree partitions both sequences
// into aligned gaps, and within each gap the left zone's exclusive tags
// precede the right zone's (the left zone covers smaller X). Overlap tags
// on which the orders disagree keep the left zone's position. When two
// orders share no tags the merge degrades to concatenation — exactly the
// zone-geometry fallback, since shards arrive sorted by zone.
//
// Duplicate EPCs within one order are ignored after their first
// occurrence, so degenerate inputs still merge deterministically.
func MergeOrders(orders [][]epcgen2.EPC) []epcgen2.EPC {
	var merged []epcgen2.EPC
	for _, o := range orders {
		merged = mergeTwo(merged, dedup(o))
	}
	return merged
}

// stitchCache memoizes MergeOrders across snapshots. MergeOrders is a
// left fold of mergeTwo over the shard orders, and between consecutive
// snapshots most shards republish the exact order they had (quiet zones
// reuse their cached result; dirty zones often re-derive the same
// ranking) — so the fold's prefix results are usually reusable. The
// cache keeps each input order and the fold result after merging it;
// merge re-runs the LCS stitch only from the first shard whose order
// changed (equal means the same EPCs in the same sequence). A fresh
// cache — or any miss pattern — produces byte-identical output to
// MergeOrders: hits short-circuit a pure function on equal inputs,
// nothing else.
//
// Cached slices are never mutated after insertion: the inputs come from
// Result.XOrderEPCs/YOrderEPCs (freshly allocated per call) or
// filterFinal (fresh when it filters), and merge hands callers a copy of
// the final fold value rather than the cached backing array.
type stitchCache struct {
	ins  [][]epcgen2.EPC // shard orders as last merged, position-keyed
	outs [][]epcgen2.EPC // outs[i]: fold result after merging ins[:i+1]
}

// merge is MergeOrders through the cache.
func (c *stitchCache) merge(orders [][]epcgen2.EPC) []epcgen2.EPC {
	var merged []epcgen2.EPC
	i := 0
	for ; i < len(orders) && i < len(c.ins) && slices.Equal(orders[i], c.ins[i]); i++ {
		merged = c.outs[i]
	}
	c.ins = c.ins[:i]
	c.outs = c.outs[:i]
	for ; i < len(orders); i++ {
		merged = mergeTwo(merged, dedup(orders[i]))
		c.ins = append(c.ins, orders[i])
		c.outs = append(c.outs, merged)
	}
	if merged == nil {
		return nil
	}
	// Callers own their result; the cached fold values stay private.
	return append([]epcgen2.EPC(nil), merged...)
}

// reset drops the memo (session close).
func (c *stitchCache) reset() { c.ins, c.outs = nil, nil }

// dedup drops repeated EPCs, keeping first occurrences.
func dedup(order []epcgen2.EPC) []epcgen2.EPC {
	seen := make(map[epcgen2.EPC]bool, len(order))
	out := order[:0:0]
	for _, e := range order {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// mergeTwo merges order b (the next zone to the right) into order a. Both
// inputs are duplicate-free; a's relative order is preserved exactly.
func mergeTwo(a, b []epcgen2.EPC) []epcgen2.EPC {
	if len(a) == 0 {
		return append([]epcgen2.EPC(nil), b...)
	}
	if len(b) == 0 {
		return a
	}
	posA := make(map[epcgen2.EPC]int, len(a))
	for i, e := range a {
		posA[e] = i
	}
	inB := make(map[epcgen2.EPC]bool, len(b))
	var commonB []epcgen2.EPC
	for _, e := range b {
		inB[e] = true
		if _, ok := posA[e]; ok {
			commonB = append(commonB, e)
		}
	}
	var commonA []epcgen2.EPC
	for _, e := range a {
		if inB[e] {
			commonA = append(commonA, e)
		}
	}
	anchors := lcs(commonA, commonB)
	anchorSet := make(map[epcgen2.EPC]bool, len(anchors))
	for _, e := range anchors {
		anchorSet[e] = true
	}

	// Walk both sequences gap by gap: everything in a up to (excluding)
	// the next anchor, then b's exclusive tags up to the same anchor, then
	// the anchor itself. Common non-anchor tags take a's position and are
	// skipped in b.
	out := make([]epcgen2.EPC, 0, len(a)+len(b))
	ai, bi := 0, 0
	for _, anchor := range anchors {
		for ; a[ai] != anchor; ai++ {
			out = append(out, a[ai])
		}
		for ; b[bi] != anchor; bi++ {
			if _, ok := posA[b[bi]]; !ok {
				out = append(out, b[bi])
			}
		}
		out = append(out, anchor)
		ai++
		bi++
	}
	out = append(out, a[ai:]...)
	for ; bi < len(b); bi++ {
		if _, ok := posA[b[bi]]; !ok {
			out = append(out, b[bi])
		}
	}
	return out
}

// lcs returns the longest common subsequence of x and y — the largest set
// of overlap tags whose relative order both zones agree on. x and y are
// permutations of the same duplicate-free set, so the classic O(len²) DP
// applies directly.
func lcs(x, y []epcgen2.EPC) []epcgen2.EPC {
	m, n := len(x), len(y)
	if m == 0 || n == 0 {
		return nil
	}
	// dp[i][j] = LCS length of x[i:], y[j:], flattened.
	dp := make([]int, (m+1)*(n+1))
	at := func(i, j int) int { return dp[i*(n+1)+j] }
	for i := m - 1; i >= 0; i-- {
		for j := n - 1; j >= 0; j-- {
			v := at(i+1, j)
			if w := at(i, j+1); w > v {
				v = w
			}
			if x[i] == y[j] {
				if w := at(i+1, j+1) + 1; w > v {
					v = w
				}
			}
			dp[i*(n+1)+j] = v
		}
	}
	out := make([]epcgen2.EPC, 0, at(0, 0))
	for i, j := 0, 0; i < m && j < n; {
		switch {
		case x[i] == y[j] && at(i, j) == at(i+1, j+1)+1:
			out = append(out, x[i])
			i++
			j++
		case at(i+1, j) >= at(i, j+1):
			i++
		default:
			j++
		}
	}
	return out
}

package stpp

import (
	"fmt"
	"sync"

	"repro/internal/dtw"
	"repro/internal/profile"
)

// Detection run sizing: a blocked detection pass takes a contiguous run of
// tags, and LocalizeTagsIncremental interleaves their DP fills over the
// shared reference panels. The run should be big enough to amortize claim
// traffic and panel loads, small enough that the run's columns-in-flight
// stay cache-resident: detectBudget bytes, roughly an L2 slice.
const (
	detectBudget   = 256 << 10
	minDetectBlock = 4
	maxDetectBlock = 64
)

// detectBlock sizes a detection run for a reference of m segments (the DP
// row count every column pays): each tag in flight holds a cost buffer
// plus its current and previous DP column — roughly 4 m-sized float64
// arrays with the shared panels amortized across the run. The result is
// clamped to [minDetectBlock, maxDetectBlock], so a huge reference still
// makes progress in non-empty runs.
func detectBlock(m int) int {
	return max(minDetectBlock, min(maxDetectBlock, detectBudget/(32*max(m, 1))))
}

// DetectBlock reports how many tags one LocalizeTagsIncremental run should
// take. It depends on the reference (its segment count), so batch Localize
// and the streaming engine size their runs from the same localizer.
func (l *Localizer) DetectBlock() int { return l.block }

// batchScratch pools the lane bookkeeping of LocalizeTagsIncremental so a
// blocked detection run allocates nothing beyond what the per-tag calls
// themselves would.
type batchScratch struct {
	als  []*dtw.SegmentAligner
	qs   [][]dtw.Segment
	res  []dtw.BatchAlign
	tag  []int
	segs [][]dtw.Segment
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// LocalizeTagsIncremental runs LocalizeTagIncremental over a run of tags
// at once: out[k] is byte-identical to LocalizeTagIncremental(sts[k],
// ps[k]) for every k, but the DTW column fills of all tags in the run are
// fed to dtw.AlignBatch, which interleaves them over the detector's shared
// reference panels instead of streaming the panels once per tag. The three
// slices must have equal length and each tag must own its state. The run
// as a whole is one unit of work — callers parallelize across runs, not
// within one; DetectBlock sizes it.
func (l *Localizer) LocalizeTagsIncremental(sts []*DetectState, ps []*profile.Profile, out []TagResult) {
	d := l.det
	sc := batchPool.Get().(*batchScratch)
	als, qs, tag, segsOf := sc.als[:0], sc.qs[:0], sc.tag[:0], sc.segs[:0]
	for k, p := range ps {
		st := sts[k]
		out[k] = TagResult{EPC: p.EPC, Profile: p}
		if p.Len() < d.cfg.MinVZoneSamples {
			out[k].Err = fmt.Errorf("stpp: profile has %d samples, need >= %d",
				p.Len(), d.cfg.MinVZoneSamples)
			continue
		}
		segs := st.segs.Segments(p)
		if len(segs) == 0 {
			out[k].Err = fmt.Errorf("stpp: empty segmentation")
			continue
		}
		als = append(als, st.al)
		qs = append(qs, segs)
		tag = append(tag, k)
		segsOf = append(segsOf, segs)
	}
	res := sc.res
	if cap(res) < len(als) {
		res = make([]dtw.BatchAlign, len(als))
	}
	res = res[:len(als)]
	dtw.AlignBatch(als, qs, res)
	for i, k := range tag {
		st, p := sts[k], ps[k]
		vz, err := d.vzoneFromAlignment(st, p, segsOf[i], res[i].Res)
		if err != nil {
			out[k].Err = err
			continue
		}
		out[k].VZone = vz
		xk, err := l.cfg.xKeyOf(st, p, vz)
		if err != nil {
			out[k].Err = err
			continue
		}
		out[k].X = xk
	}
	// Drop the aligner/segment pointers before pooling: a pooled scratch
	// must not keep an evicted tag's DP matrix reachable.
	for i := range als {
		als[i], qs[i], segsOf[i] = nil, nil, nil
		res[i] = dtw.BatchAlign{}
	}
	sc.als, sc.qs, sc.res, sc.tag, sc.segs = als[:0], qs[:0], res[:0], tag[:0], segsOf[:0]
	batchPool.Put(sc)
}

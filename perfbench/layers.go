package main

import (
	"sort"
	"time"

	"ropus/internal/telemetry"
)

// selfTimes returns, for every root span (keyed by root span ID) and
// every span name under it, the self time of each span with that name:
// its duration minus the part of that interval its child spans cover.
// Children may overlap (parallel calls under one parent), so the covered
// part is the union of their intervals, clipped to the parent.
func selfTimes(spans []telemetry.SpanRecord) map[int64]map[string][]time.Duration {
	children := make(map[int64][]telemetry.SpanRecord)
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	out := make(map[int64]map[string][]time.Duration)
	for _, s := range spans {
		byName := out[s.RootID]
		if byName == nil {
			byName = make(map[string][]time.Duration)
			out[s.RootID] = byName
		}
		self := s.Duration - covered(s, children[s.ID])
		byName[s.Name] = append(byName[s.Name], self)
	}
	return out
}

// covered returns the length of the union of the children's intervals
// inside the parent's interval.
func covered(parent telemetry.SpanRecord, kids []telemetry.SpanRecord) time.Duration {
	type iv struct{ lo, hi time.Duration }
	lo, hi := parent.Start, parent.Start+parent.Duration
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.Start+k.Duration, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// sumSeconds adds up durations in seconds.
func sumSeconds(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}

// medianSeconds is the median duration in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

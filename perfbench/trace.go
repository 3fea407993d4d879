package main

import (
	"sort"
	"time"
)

// span is one call the benchmark made into a layer. Times are offsets
// from the tracer's start; Parent is -1 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory for one run. It is used from a single
// goroutine: the benchmark's calls into the layers are sequential, and a
// span's parent is whichever span is open when it begins.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// do records one span named name around f.
func (t *tracer) do(name string, f func()) time.Duration {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: time.Since(t.t0)})
	t.open = append(t.open, id)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.t0)
	return t.spans[id].dur()
}

// durations returns the durations of every span named name, in order.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Children may nest or overlap, so their
// intervals are merged before subtracting.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			if curEnd < 0 || start > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = start, end
			} else if end > curEnd {
				curEnd = end
			}
		}
		covered += curEnd - curStart
		out[i] = s.dur() - covered
	}
	return out
}

// selfByName sums self time and counts spans per name.
type nameTotal struct {
	Name        string
	N           int
	Total, Self time.Duration
}

func selfByName(spans []span) []nameTotal {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []nameTotal
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, nameTotal{Name: s.Name})
		}
		out[j].N++
		out[j].Total += s.dur()
		out[j].Self += self[i]
	}
	return out
}

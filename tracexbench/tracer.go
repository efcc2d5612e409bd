package main

import (
	"sort"
	"sync"
	"time"
)

// Tracer records spans around the benchmark's calls into each layer. A span
// has a layer, a call name, start and end, and the span that caused it;
// spans stay in memory and are summarized when the run ends. A nil *Tracer
// records nothing, so traced and untraced operations share one code path.
type Tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

type span struct {
	layer, call string
	parent      int // index into spans, -1 for an operation's root
	start, end  time.Duration
}

// rootLayer names an operation's root span: its self time is the time no
// layer span covers, the unattributed remainder.
const rootLayer = "op"

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Begin opens a span and returns its id; parent is -1 for a root.
func (t *Tracer) Begin(layer, call string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, call: call, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// Do runs f inside a span.
func (t *Tracer) Do(layer, call string, parent int, f func() error) error {
	id := t.Begin(layer, call, parent)
	err := f()
	t.End(id)
	return err
}

// TraceSummary is the per-layer accounting of a set of closed spans.
type TraceSummary struct {
	// Ops is the number of root spans.
	Ops int
	// SelfMs is each layer's total self time: span duration minus the part
	// of it that the span's children cover. The root layer's self time is
	// the unattributed time.
	SelfMs map[string]float64
	// Calls holds each "layer.call" span's durations.
	Calls map[string]*Sample
}

// Summary computes self times and per-call durations. Open spans are
// ignored.
func (t *Tracer) Summary() TraceSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	return summarize(spans)
}

func summarize(spans []span) TraceSummary {
	s := TraceSummary{SelfMs: map[string]float64{}, Calls: map[string]*Sample{}}
	children := make([][]int, len(spans))
	for i, sp := range spans {
		if sp.end < 0 {
			continue
		}
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		} else {
			s.Ops++
		}
	}
	for i, sp := range spans {
		if sp.end < 0 {
			continue
		}
		d := sp.end - sp.start
		self := d - covered(sp, spans, children[i])
		s.SelfMs[sp.layer] += ms(self)
		if sp.parent >= 0 {
			key := sp.layer + "." + sp.call
			if s.Calls[key] == nil {
				s.Calls[key] = &Sample{}
			}
			s.Calls[key].Add(d)
		}
	}
	return s
}

// covered returns how much of parent's interval the union of its
// children's intervals covers; children may overlap (parallel calls).
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		if c.end < 0 {
			continue
		}
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

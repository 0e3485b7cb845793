package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"time"
)

// spanName identifies a span kind; names are registered once at start-up
// so recording a span costs no map lookup.
type spanName uint16

var spanNames []string

func newSpanName(s string) spanName {
	spanNames = append(spanNames, s)
	return spanName(len(spanNames) - 1)
}

// span is one timed call across a layer boundary (or one benchmark
// phase, which parents the calls made inside it). Times are nanoseconds
// since the tracer's epoch.
type span struct {
	name   spanName
	parent int32 // index of the enclosing span; -1 for a root
	req    uint32
	start  int64
	end    int64
}

// counter is a value read at a span's boundary (a delta over the span).
type counter struct {
	Span  int32   `json:"span"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// tracer keeps every span in memory and writes them out once, at exit.
// It is used from one goroutine. A nil *tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	epoch    time.Time
	spans    []span
	open     []int32
	counters []counter
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) parent() int32 {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (t *tracer) begin(n spanName, req uint32) int32 {
	if t == nil {
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: n, parent: t.parent(), req: req, start: t.now()})
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = t.now()
	t.open = t.open[:len(t.open)-1]
}

// add records a finished span under the innermost open one, for calls
// whose start and end the caller timed itself (overlapping pipelined
// requests cannot nest).
func (t *tracer) add(n spanName, req uint32, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: n, parent: t.parent(), req: req,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))})
}

// count attaches a counter to span i.
func (t *tracer) count(i int32, name string, v float64) {
	if t == nil {
		return
	}
	t.counters = append(t.counters, counter{Span: i, Name: name, Value: v})
}

// durations returns the durations of every span named n whose parent is
// named parent.
func (t *tracer) durations(n, parent spanName) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name != n || s.parent < 0 || t.spans[s.parent].name != parent {
			continue
		}
		out = append(out, time.Duration(s.end-s.start))
	}
	return out
}

// mark returns the number of spans recorded so far, for sumSince.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// sumSince returns the total duration in nanoseconds of the spans named n
// recorded since mark from (0 on a nil tracer).
func (t *tracer) sumSince(from int, n spanName) float64 {
	if t == nil {
		return 0
	}
	var sum int64
	for _, s := range t.spans[from:] {
		if s.name == n {
			sum += s.end - s.start
		}
	}
	return float64(sum)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children's intervals cover (children clipped to the
// parent, overlapping children counted once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		slices.SortFunc(ks, func(a, b int32) int { return cmp.Compare(spans[a].start, spans[b].start) })
		covered := int64(0)
		curLo, curHi := int64(0), int64(-1)
		for _, k := range ks {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	P50Ns   float64 `json:"p50_ns"`
	P99Ns   float64 `json:"p99_ns"`
}

func (t *tracer) summary() []spanSummary {
	self := selfTimes(t.spans)
	by := make([]spanSummary, len(spanNames))
	durs := make([][]time.Duration, len(spanNames))
	for i, s := range t.spans {
		a := &by[s.name]
		a.Count++
		a.TotalNs += s.end - s.start
		a.SelfNs += self[i]
		durs[s.name] = append(durs[s.name], time.Duration(s.end-s.start))
	}
	var out []spanSummary
	for n, a := range by {
		if a.Count == 0 {
			continue
		}
		a.Name = spanNames[n]
		a.P50Ns = durQuantile(durs[n], 0.5)
		a.P99Ns = durQuantile(durs[n], 0.99)
		out = append(out, a)
	}
	return out
}

// maxSpansWritten caps the raw spans written out; the summary covers
// every span.
const maxSpansWritten = 1 << 16

// write stores the trace as one JSON document: the environment, the
// per-name summary (with self times), the counters, and the first
// maxSpansWritten raw spans as [name, parent, req, start_ns, end_ns].
func (t *tracer) write(path string, env map[string]any) error {
	raw := t.spans[:min(len(t.spans), maxSpansWritten)]
	rows := make([][5]int64, len(raw))
	for i, s := range raw {
		rows[i] = [5]int64{int64(s.name), int64(s.parent), int64(s.req), s.start, s.end}
	}
	doc := map[string]any{
		"env":         env,
		"names":       spanNames,
		"spans_total": len(t.spans),
		"summary":     t.summary(),
		"counters":    t.counters,
		"spans":       rows,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans are recorded only in
// benchmark code, around calls into the public API, so tracing never
// changes the program under test.
type span struct {
	Name   string `json:"name"`
	Note   string `json:"note,omitempty"` // e.g. the decision path of a Tune
	Start  int64  `json:"start_ns"`       // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Run    int32  `json:"run"`    // the round (one complete call sequence) it belongs to
	NNZ    int    `json:"nnz,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer times calls and, when on, records them as nested spans in memory.
// One caller goroutine drives every workload, so spans nest strictly and an
// open-span stack gives each span its parent. Timing goes through the
// tracer whether or not it records, so a traced and an untraced round run
// the same timing code and differ only by the recording.
type tracer struct {
	on    bool
	epoch time.Time
	run   int32
	spans []span
	open  []int32
}

// maxSpans bounds the in-memory trace; later spans are timed but dropped.
const maxSpans = 1 << 20

type mark struct {
	t   time.Time
	idx int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) mark { return t.beginNNZ(name, 0) }

func (t *tracer) beginNNZ(name string, nnz int) mark {
	now := time.Now()
	if !t.on || len(t.spans) >= maxSpans {
		return mark{t: now, idx: -1}
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: now.Sub(t.epoch).Nanoseconds(), Parent: parent, Run: t.run, NNZ: nnz})
	idx := int32(len(t.spans) - 1)
	t.open = append(t.open, idx)
	return mark{t: now, idx: idx}
}

// end closes the span opened by m and returns its duration in seconds.
func (t *tracer) end(m mark) float64 {
	now := time.Now()
	if m.idx >= 0 {
		t.spans[m.idx].End = now.Sub(t.epoch).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
	return now.Sub(m.t).Seconds()
}

// note attaches a label to a recorded span.
func (t *tracer) note(m mark, s string) {
	if m.idx >= 0 {
		t.spans[m.idx].Note = s
	}
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[int32(i)])
	}
	return self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// layerTime is the total and self seconds and the count of the spans of
// one name within one run.
type layerTime struct {
	total, self float64
	count       int
}

// layerTimes aggregates spans by run and name. A span with a note is also
// counted under "name/note", so Tune time splits by decision path.
func layerTimes(spans []span) map[int32]map[string]*layerTime {
	self := selfTimes(spans)
	out := map[int32]map[string]*layerTime{}
	add := func(m map[string]*layerTime, key string, s span, selfNs int64) {
		lt := m[key]
		if lt == nil {
			lt = &layerTime{}
			m[key] = lt
		}
		lt.total += float64(s.dur()) / 1e9
		lt.self += float64(selfNs) / 1e9
		lt.count++
	}
	for i, s := range spans {
		m := out[s.Run]
		if m == nil {
			m = map[string]*layerTime{}
			out[s.Run] = m
		}
		add(m, s.Name, s, self[i])
		if s.Note != "" {
			add(m, s.Name+"/"+s.Note, s, self[i])
		}
	}
	return out
}

// writeSpans writes the header and the recorded spans as JSON lines.
func writeSpans(path string, header any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}

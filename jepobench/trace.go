package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary, recorded by the benchmark's
// own code around a public call of the program.
type span struct {
	Name   string
	ID     string // request, row or file the work belongs to
	Parent int    // enclosing span; -1 for a lane root
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory; they are analysed and written out only when
// the run ends. A nil *tracer records nothing, so the same code serves the
// untraced and the traced form.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its handle.
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// rename names a span after the fact, once its call has shown which
// layer did the work.
func (t *tracer) rename(i int, name string) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].Name = name
	t.mu.Unlock()
}

// add records a span whose endpoints were observed elsewhere, such as the
// arrival times of a response's events.
func (t *tracer) add(name, id string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// within runs f inside a span named name.
func (t *tracer) within(name, id string, parent int, f func(self int) error) error {
	i := t.begin(name, id, parent)
	err := f(i)
	t.end(i)
	return err
}

// traceSummary is the layer accounting of one trace.
type traceSummary struct {
	// Self is each span name's summed self time: its duration minus the part
	// of that interval its child spans cover.
	Self map[string]time.Duration
	// SelfByID splits Self by span id (per-classifier cross-validation).
	SelfByID map[string]map[string]time.Duration
	// LaneWall sums the durations of the lane roots: the traced wall time of
	// every sequential strand of work.
	LaneWall time.Duration
	// Covered sums the self time of every layer span: every span below a
	// lane root except the "bench.*" spans that only group work.
	Covered time.Duration
}

// Coverage is the share of the traced wall time that named layers account
// for. Children nest inside their parents and a lane's top-level spans run
// one after another, so it cannot exceed 1.
func (s traceSummary) Coverage() float64 {
	if s.LaneWall <= 0 {
		return 0
	}
	return float64(s.Covered) / float64(s.LaneWall)
}

// Share is one span name's self time as a share of the traced wall time.
func (s traceSummary) Share(name string) float64 {
	if s.LaneWall <= 0 {
		return 0
	}
	return float64(s.Self[name]) / float64(s.LaneWall)
}

// summary computes every span's self time.
func (t *tracer) summary() traceSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := traceSummary{
		Self:     map[string]time.Duration{},
		SelfByID: map[string]map[string]time.Duration{},
	}
	for i, s := range spans {
		self := s.End - s.Start - covered(spans, children[i], s.Start, s.End)
		if s.Parent < 0 {
			out.LaneWall += s.End - s.Start
			continue
		}
		if !strings.HasPrefix(s.Name, "bench.") {
			out.Covered += self
		}
		out.Self[s.Name] += self
		if out.SelfByID[s.Name] == nil {
			out.SelfByID[s.Name] = map[string]time.Duration{}
		}
		out.SelfByID[s.Name][s.ID] += self
	}
	return out
}

// covered measures the union of the children's intervals clipped to
// [lo, hi], so overlapping children are not counted twice.
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write saves the spans in Chrome trace-event format, one thread per lane.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		lane := i
		for spans[lane].Parent >= 0 {
			lane = spans[lane].Parent
		}
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: lane,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

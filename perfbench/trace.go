package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, when
// it started and ended (offsets from the recorder's start), the span that
// caused it (0 for a root), and the request it belongs to (0 outside the
// serve workload; every span of one served request shares it).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin allocates a span id and reads the start time.
func (r *recorder) begin() (id int64, start time.Duration) {
	if r == nil {
		return 0, 0
	}
	return r.nextID.Add(1), time.Since(r.t0)
}

// end closes the span begun as id.
func (r *recorder) end(id, parent, req int64, name string, start time.Duration) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: time.Since(r.t0)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// named returns the spans called name.
func (r *recorder) named(name string) []span {
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of spans called name in unit.
func (r *recorder) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range r.named(name) {
		out = append(out, float64(s.dur())/float64(unit))
	}
	return out
}

// selfSeconds sums the self time of every span called name: its duration
// minus the part of it covered by its children.
func (r *recorder) selfSeconds(name string) float64 {
	children := map[int64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var t time.Duration
	for _, s := range r.named(name) {
		t += selfTime(s, children[s.ID])
	}
	return t.Seconds()
}

// write stores the spans as JSON lines, ordered by start.
func (r *recorder) write(path string) error {
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTime is parent's duration minus the length of the union of its
// children's intervals, each clipped to the parent. Children that overlap
// one another (parallel workers) are counted once.
func selfTime(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

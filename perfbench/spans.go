package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval around a call the benchmark makes into a
// layer. Spans of one operation (a sweep mix, a churn campaign, one client
// call) share Op; Parent is the id of the span that caused this one, 0 for a
// root. Times are nanoseconds since the recorder was created.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends; several goroutines may
// record at once.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// reserve hands out a span id. Spans whose children are recorded before
// they end reserve their id first and finish under it.
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// finish records a finished interval under a reserved id. A nil recorder
// (an untraced run) records nothing.
func (r *recorder) finish(id int64, name string, parent, op int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Op: op,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
}

// add records a finished interval under a fresh id.
func (r *recorder) add(name string, parent, op int64, start, end time.Time) {
	r.finish(r.reserve(), name, parent, op, start, end)
}

// named returns the spans with the given name.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the named spans in seconds.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.named(name) {
		out = append(out, s.dur().Seconds())
	}
	return out
}

// selfTime returns each named span's duration minus the part of it that its
// direct children cover, in seconds. Children of one span never overlap: the
// benchmark records them from the goroutine that owns the parent.
func (r *recorder) selfTime(name string) []float64 {
	r.mu.Lock()
	children := map[int64]time.Duration{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	r.mu.Unlock()
	var out []float64
	for _, s := range r.named(name) {
		out = append(out, (s.dur() - children[s.ID]).Seconds())
	}
	return out
}

// write stores the spans as JSON lines, in start order.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the method of Python's statistics.quantiles, inclusive), or
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// scaled multiplies every sample by k (unit conversion).
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

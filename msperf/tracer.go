package main

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime/pprof"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Spans nest: Parent names the enclosing span (0 at top level), and
// every span of one round shares its Round.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory and, in a traced run, CPU-profiles
// the timed work. The harness is single-threaded, so a stack gives
// each span its parent.
type tracer struct {
	t0    time.Time
	round int
	list  []span
	open  []int

	profiling bool
	buf       bytes.Buffer
	profiles  [][]byte
	err       error // first profiler failure
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// timed starts the timed part of a round and returns the function that
// ends it and reports its host time. While profiling, exactly the timed
// parts are profiled, so set-up stays out of the layer shares.
func (s *tracer) timed() func() time.Duration {
	if s.profiling {
		s.buf.Reset()
		if err := pprof.StartCPUProfile(&s.buf); err != nil && s.err == nil {
			s.err = err
		}
	}
	t0 := time.Now()
	return func() time.Duration {
		d := time.Since(t0)
		if s.profiling {
			pprof.StopCPUProfile()
			s.profiles = append(s.profiles, bytes.Clone(s.buf.Bytes()))
		}
		return d
	}
}

// begin opens a span and returns the function that closes it.
func (s *tracer) begin(name string) func() time.Duration {
	parent := 0
	if n := len(s.open); n > 0 {
		parent = s.list[s.open[n-1]].ID
	}
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Round: s.round,
		Name: name, Start: int64(time.Since(s.t0))})
	i := len(s.list) - 1
	s.open = append(s.open, i)
	return func() time.Duration {
		s.list[i].End = int64(time.Since(s.t0))
		s.open = s.open[:len(s.open)-1]
		return s.list[i].dur()
	}
}

// durations lists the durations of every span with this name.
func (s *tracer) durations(name string) []float64 {
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name && sp.End > 0 {
			out = append(out, float64(sp.dur()))
		}
	}
	return out
}

// selfTime is a span's duration minus what its child spans cover.
func (s *tracer) selfTime() map[string]time.Duration {
	out := map[string]time.Duration{}
	child := map[int]time.Duration{}
	for _, sp := range s.list {
		if sp.Parent > 0 {
			child[sp.Parent] += sp.dur()
		}
	}
	for _, sp := range s.list {
		out[sp.Name] += sp.dur() - child[sp.ID]
	}
	return out
}

// write emits the spans and each span name's summed self time.
func (s *tracer) write(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Spans  []span                   `json:"spans"`
		SelfNS map[string]time.Duration `json:"self_ns"`
	}{s.list, s.selfTime()})
}

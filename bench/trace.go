package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call made from the benchmark into the program. Start
// and End are nanoseconds since the run began; Parent is the span that
// caused this one (0 for a root) and Op groups the spans of one request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory for one goroutine; nothing is written
// until the run ends. A tracer that is off costs one branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	base  int64 // high bits of every ID, distinct per tracer
	spans []span
}

func newTracer(epoch time.Time, slot int) *tracer {
	return &tracer{epoch: epoch, base: int64(slot+1) << 40}
}

// begin opens a span and returns its ID (0 when tracing is off). A span
// with op 0 starts a new request and is its own op.
func (t *tracer) begin(name string, parent, op int64) int64 {
	if !t.on {
		return 0
	}
	id := t.base + int64(len(t.spans)) + 1
	if op == 0 {
		op = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int64) {
	if id == 0 {
		return
	}
	t.spans[id-t.base-1].End = int64(time.Since(t.epoch))
}

// writeSpans merges the tracers' spans in start order into a JSON-lines file.
func writeSpans(path string, tracers ...*tracer) (int, error) {
	var all []span
	for _, t := range tracers {
		all = append(all, t.spans...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range all {
		if err := enc.Encode(&all[i]); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(all), f.Close()
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, interval, the span
// that caused it (-1 for an operation's root), and the operation it
// belongs to. IDs are unique within an operation.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every finished operation's spans in memory; they are
// written out once, when the run ends, so recording costs a clock read
// and an append.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	nextOp int64
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opTrace records the spans of one operation. It belongs to the
// goroutine running the operation; finish hands its spans to the
// tracer.
type opTrace struct {
	t     *tracer
	op    int64
	spans []span
	stack []int
}

// begin starts an operation. A nil tracer yields a nil opTrace, whose
// methods are no-ops, so untraced code paths share the traced ones.
func (t *tracer) begin() *opTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextOp++
	op := t.nextOp
	t.mu.Unlock()
	return &opTrace{t: t, op: op}
}

// start opens a span as a child of the innermost open span.
func (o *opTrace) start(name string) {
	if o == nil {
		return
	}
	parent := -1
	if n := len(o.stack); n > 0 {
		parent = o.stack[n-1]
	}
	id := len(o.spans)
	o.spans = append(o.spans, span{Name: name, Op: o.op, ID: id, Parent: parent,
		Start: int64(time.Since(o.t.epoch))})
	o.stack = append(o.stack, id)
}

// end closes the innermost open span.
func (o *opTrace) end() {
	if o == nil {
		return
	}
	n := len(o.stack)
	o.spans[o.stack[n-1]].End = int64(time.Since(o.t.epoch))
	o.stack = o.stack[:n-1]
}

// finish closes any open spans and files the operation's spans.
func (o *opTrace) finish() {
	if o == nil {
		return
	}
	for len(o.stack) > 0 {
		o.end()
	}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.spans...)
	o.t.mu.Unlock()
}

// snapshot returns a copy of the spans filed so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums each span name's self time in nanoseconds: the span's
// duration minus the part of its interval that its direct children
// cover (overlapping children count once).
func selfTimes(spans []span) map[string]int64 {
	type key struct {
		op int64
		id int
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s, children[key{s.Op, s.ID}])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

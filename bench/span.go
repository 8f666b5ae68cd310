package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around a call it
// makes into the system: name, start, end, the span that caused it, and
// the identifier the spans of one cycle share.
type span struct {
	cat, name string
	id        uint64
	parent    int // index of the enclosing span, -1 for a root
	start     time.Duration
	dur       time.Duration
	counts    []spanCount
}

type spanCount struct {
	key string
	val int
}

// recorder keeps spans in memory until the run ends. The benchmark has one
// client, so spans nest on one stack and need no lock. A nil recorder
// records nothing: every method returns at its nil check, which is all the
// untraced run pays.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open one and returns its handle.
func (r *recorder) begin(cat, name string, id uint64) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{cat: cat, name: name, id: id, parent: parent, start: time.Since(r.epoch)})
	h := len(r.spans) - 1
	r.stack = append(r.stack, h)
	return h
}

// end closes the span and attaches one count to it.
func (r *recorder) end(h int, key string, val int) {
	if r == nil {
		return
	}
	s := &r.spans[h]
	s.dur = time.Since(r.epoch) - s.start
	s.counts = append(s.counts, spanCount{key, val})
	r.stack = r.stack[:len(r.stack)-1]
}

// count attaches a further count to a span (open or closed).
func (r *recorder) count(h int, key string, val int) {
	if r == nil {
		return
	}
	r.spans[h].counts = append(r.spans[h].counts, spanCount{key, val})
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace flushes the recorded spans as trace-event JSON.
func (r *recorder) writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`+"\n")
	for i := range r.spans {
		s := &r.spans[i]
		args := map[string]any{"span": i, "parent": s.parent}
		if s.id != 0 {
			args["cycle"] = s.id
		}
		for _, c := range s.counts {
			args[c.key] = c.val
		}
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		ev := chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
		}
		if err := enc.Encode(ev); err != nil { // Encode ends each event with a newline
			f.Close()
			return err
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

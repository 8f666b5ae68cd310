// Package stream implements PCN-style streams: definitional lists used for
// communication between concurrently executing task-parallel processes.
//
// In PCN, a stream of messages between processes is "a shared definitional
// list whose elements correspond to messages" (§A.3 of the paper). A producer
// extends the list one cons cell at a time; a consumer suspends on the
// undefined tail until the producer defines it. The paper's polynomial-
// multiplication pipeline (§6.2) is built entirely from such streams
// (In_stream, Out_streams, stream tails, and the [] end-of-stream marker).
//
// Stream[T] is one cell of such a list. Each cell is a definitional variable
// that is eventually defined either as a cons (head value + new tail cell) or
// as the end of the stream (PCN's []).
//
// Cost model: a cell is a defval.Var, so sending on a cell nobody is
// waiting on makes no channel, and receiving from a cell that is already
// defined is one atomic load. Stream.Send allocates one cell per call. A
// Writer takes its cells from a slab of slabCells cells allocated
// together, one allocation per slabCells elements; the price is that
// while any later cell of a slab is still referenced, the up to
// slabCells-1 cells before it in the slab stay reachable too, consumed
// or not.
package stream

import (
	"repro/internal/defval"
)

// Stream is a handle to one cell of a definitional list. The zero value is
// not usable; create streams with New.
type Stream[T any] struct {
	cell *defval.Var[cellval[T]]
}

type cellval[T any] struct {
	head T
	tail Stream[T]
	end  bool
}

// New returns a fresh, undefined stream cell.
func New[T any]() Stream[T] {
	return Stream[T]{cell: defval.New[cellval[T]]()}
}

// Valid reports whether s is a usable stream handle.
func (s Stream[T]) Valid() bool { return s.cell != nil }

// Send defines this cell as a cons of v and a fresh tail, and returns the
// tail. It panics if the cell is already defined (single-assignment rule).
func (s Stream[T]) Send(v T) Stream[T] {
	tail := New[T]()
	s.cell.MustDefine(cellval[T]{head: v, tail: tail})
	return tail
}

// Close defines this cell as the end of the stream (PCN's Stream = []).
// It panics if the cell is already defined.
func (s Stream[T]) Close() {
	s.cell.MustDefine(cellval[T]{end: true})
}

// Recv suspends until this cell is defined. If the cell is a cons it returns
// (head, tail, true); if it is the end of the stream it returns
// (zero, invalid, false).
func (s Stream[T]) Recv() (v T, rest Stream[T], ok bool) {
	c := s.cell.Value()
	if c.end {
		var zero T
		return zero, Stream[T]{}, false
	}
	return c.head, c.tail, true
}

// TryRecv is Recv without suspension: defined reports whether the cell has
// been defined at all.
func (s Stream[T]) TryRecv() (v T, rest Stream[T], ok, defined bool) {
	c, def := s.cell.Try()
	if !def {
		var zero T
		return zero, Stream[T]{}, false, false
	}
	if c.end {
		var zero T
		return zero, Stream[T]{}, false, true
	}
	return c.head, c.tail, true, true
}

// Defined returns a channel closed once this cell has been defined — the
// analogue of a PCN data guard on the stream variable.
func (s Stream[T]) Defined() <-chan struct{} { return s.cell.Defined() }

// slabCells is how many cells a Writer allocates at once.
const slabCells = 64

// Writer is a convenience producer handle that tracks the current tail so
// callers can write sequentially without threading the tail by hand.
type Writer[T any] struct {
	tail Stream[T]
	slab []defval.Var[cellval[T]] // cells not yet handed out
}

// NewWriter returns a writer producing into s.
func NewWriter[T any](s Stream[T]) *Writer[T] { return &Writer[T]{tail: s} }

// Put appends v to the stream.
func (w *Writer[T]) Put(v T) {
	if len(w.slab) == 0 {
		w.slab = make([]defval.Var[cellval[T]], slabCells)
	}
	next := Stream[T]{cell: &w.slab[0]}
	w.slab = w.slab[1:]
	w.tail.cell.MustDefine(cellval[T]{head: v, tail: next})
	w.tail = next
}

// End closes the stream.
func (w *Writer[T]) End() { w.tail.Close() }

// Tail returns the current (undefined) tail cell; useful for splicing, as in
// the paper's idiom "Out_stream = [values | Out_stream_tail]" where a
// producer forwards its remaining output to another stream.
func (w *Writer[T]) Tail() Stream[T] { return w.tail }

// SpliceTo ends this writer's ownership by making subsequent output come
// from other: it sends nothing, instead forwarding every element of other
// into the current tail. It runs synchronously until other is closed.
func (w *Writer[T]) SpliceTo(other Stream[T]) {
	for {
		v, rest, ok := other.Recv()
		if !ok {
			w.End()
			return
		}
		w.Put(v)
		other = rest
	}
}

// Reader is a convenience consumer handle.
type Reader[T any] struct {
	cur Stream[T]
}

// NewReader returns a reader consuming from s.
func NewReader[T any](s Stream[T]) *Reader[T] { return &Reader[T]{cur: s} }

// Next suspends for the next element; ok is false at end of stream.
func (r *Reader[T]) Next() (v T, ok bool) {
	v, rest, ok := r.cur.Recv()
	if ok {
		r.cur = rest
	}
	return v, ok
}

// Rest returns the current position as a stream (for handing the remainder
// to another consumer, the paper's In_stream_tail idiom).
func (r *Reader[T]) Rest() Stream[T] { return r.cur }

// FromSlice produces a closed stream containing vs.
func FromSlice[T any](vs []T) Stream[T] {
	s := New[T]()
	w := NewWriter(s)
	for _, v := range vs {
		w.Put(v)
	}
	w.End()
	return s
}

// Collect consumes s to its end and returns all elements. It suspends as
// needed; the producer may still be running concurrently.
func Collect[T any](s Stream[T]) []T {
	var out []T
	r := NewReader(s)
	for {
		v, ok := r.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// CollectN consumes exactly n elements (suspending as needed) and returns
// them along with the remaining stream position.
func CollectN[T any](s Stream[T], n int) ([]T, Stream[T], bool) {
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		v, rest, ok := s.Recv()
		if !ok {
			return out, Stream[T]{}, false
		}
		out = append(out, v)
		s = rest
	}
	return out, s, true
}

// Forward copies every element of src into dst and closes dst when src
// ends. It is the stream analogue of io.Copy.
func Forward[T any](src, dst Stream[T]) { NewWriter(dst).SpliceTo(src) }

// Map produces a new stream applying f to each element of src; the result
// stream is produced concurrently.
func Map[T, U any](src Stream[T], f func(T) U) Stream[U] {
	out := New[U]()
	go func() {
		w := NewWriter(out)
		r := NewReader(src)
		for {
			v, ok := r.Next()
			if !ok {
				w.End()
				return
			}
			w.Put(f(v))
		}
	}()
	return out
}

// Zip pairs elements of a and b with f until either ends.
func Zip[A, B, C any](a Stream[A], b Stream[B], f func(A, B) C) Stream[C] {
	out := New[C]()
	go func() {
		w := NewWriter(out)
		ra, rb := NewReader(a), NewReader(b)
		for {
			x, ok := ra.Next()
			if !ok {
				w.End()
				return
			}
			y, ok := rb.Next()
			if !ok {
				w.End()
				return
			}
			w.Put(f(x, y))
		}
	}()
	return out
}

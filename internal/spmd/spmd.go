// Package spmd is the runtime seen by a called data-parallel (SPMD)
// program: the concurrently executing copies of the program communicate
// point-to-point and through collective operations, addressing each other
// only through the array of processor numbers over which the distributed
// call was made.
//
// This implements the paper's relocatability requirement (§3.5): "if the
// program makes use of processor numbers for communicating between its
// concurrently-executing copies, it must obtain them from the array of
// processor numbers used to specify the processors on which the distributed
// call is being performed", and it must not use global-communication
// routines that cannot be restricted to a subset of the processors — all
// collectives here operate strictly within the call's group.
//
// Every message is tagged with the distributed call's instance ID in the
// data-parallel message class, so concurrently executing calls on the same
// machine can never intercept each other's traffic (§3.4.1, Fig 3.4).
package spmd

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/msg"
)

// World is the communication context of one copy of an SPMD program.
type World struct {
	procs  []int // processor numbers of the group (the relocatability array)
	index  int   // this copy's index within procs
	callID uint64
	router *msg.Router
	// deadline bounds every receive (0 = wait forever); see SetRecvDeadline.
	deadline time.Duration
	// haloEpoch counts HaloExchange calls so each exchange's slabs travel
	// under epoch-salted kinds (see halo.go).
	haloEpoch int
}

// NewWorld builds the context for group member index of the given call.
// The distributed-call machinery constructs one per copy; tests may build
// them directly.
func NewWorld(router *msg.Router, procs []int, index int, callID uint64) *World {
	if index < 0 || index >= len(procs) {
		panic(fmt.Sprintf("spmd: index %d outside group of size %d", index, len(procs)))
	}
	return &World{procs: procs, index: index, callID: callID, router: router}
}

// Size returns the number of copies in the group (the paper's P).
func (w *World) Size() int { return len(w.procs) }

// Rank returns this copy's index within the group (the paper's Index
// parameter: "an index into the array of processors over which the call is
// distributed").
func (w *World) Rank() int { return w.index }

// Procs returns the processor-number array of the call. Programs must use
// it — not absolute machine layout — for any processor arithmetic.
func (w *World) Procs() []int { return w.procs }

// ProcNum returns the physical (virtual-machine) processor number this copy
// runs on: Procs()[Rank()].
func (w *World) ProcNum() int { return w.procs[w.index] }

// CallID returns the distributed-call instance identifier.
func (w *World) CallID() uint64 { return w.callID }

// SetRecvDeadline bounds every subsequent receive by this copy: a receive
// that cannot complete within d returns msg.ErrTimeout instead of blocking
// forever, and a receive from a killed processor's mailbox surfaces
// msg.ErrProcessorDown. d <= 0 restores unbounded waits (the default).
// This is the data-parallel plane's half of the failure model: SPMD
// collectives have no retransmission machinery (a group member is not a
// server that can deduplicate), so under faults a program bounds its waits
// and surfaces the error to the distributed-call layer.
func (w *World) SetRecvDeadline(d time.Duration) { w.deadline = d }

func (w *World) tag(kind int) msg.Tag {
	return msg.Tag{Class: msg.ClassData, Call: w.callID, Kind: kind}
}

// Send sends data to the group member with rank dst under the user message
// kind (kind must be >= 0; negative kinds are reserved for collectives).
// Sends are asynchronous.
func (w *World) Send(dst, kind int, data any) error {
	if kind < 0 {
		return fmt.Errorf("spmd: negative kinds are reserved (got %d)", kind)
	}
	if dst < 0 || dst >= len(w.procs) {
		return fmt.Errorf("spmd: rank %d outside group of size %d", dst, len(w.procs))
	}
	return w.router.Send(w.ProcNum(), w.procs[dst], w.tag(kind), data)
}

// Recv receives the oldest message of the given kind from group member src
// (selective receive). src = AnyRank matches any group member.
func (w *World) Recv(src, kind int) (any, error) {
	if kind < 0 {
		return nil, fmt.Errorf("spmd: negative kinds are reserved (got %d)", kind)
	}
	m, err := w.recvInternal(src, kind)
	if err != nil {
		return nil, err
	}
	return m.Data, nil
}

// AnyRank matches any source rank in Recv.
const AnyRank = -1

func (w *World) recvInternal(src, kind int) (msg.Message, error) {
	var srcProc int
	if src == AnyRank {
		srcProc = msg.AnySource
	} else {
		if src < 0 || src >= len(w.procs) {
			return msg.Message{}, fmt.Errorf("spmd: rank %d outside group of size %d", src, len(w.procs))
		}
		srcProc = w.procs[src]
	}
	if w.deadline > 0 {
		m, err := w.router.RecvFromTimeout(w.ProcNum(), srcProc, w.tag(kind), w.deadline)
		if errors.Is(err, msg.ErrTimeout) && srcProc != msg.AnySource && w.router.Down(srcProc) {
			// The peer did not go quiet — it died. Distinguishing the two
			// lets a halo exchange surface the kill instead of a generic
			// deadline miss.
			return m, fmt.Errorf("spmd: rank %d (proc %d): %w", src, srcProc, msg.ErrProcessorDown)
		}
		return m, err
	}
	return w.router.RecvFrom(w.ProcNum(), srcProc, w.tag(kind))
}

func (w *World) sendInternal(dst, kind int, data any) error {
	return w.router.Send(w.ProcNum(), w.procs[dst], w.tag(kind), data)
}

// RecvFloats is Recv specialised to []float64 payloads, the common case for
// numeric SPMD kernels.
func (w *World) RecvFloats(src, kind int) ([]float64, error) {
	d, err := w.Recv(src, kind)
	if err != nil {
		return nil, err
	}
	f, ok := d.([]float64)
	if !ok {
		return nil, fmt.Errorf("spmd: expected []float64, got %T", d)
	}
	return f, nil
}

// Exchange performs a simultaneous send/receive of float slices with the
// group member at rank partner (both sides must call it) — the building
// block of the binary-exchange FFT and boundary swaps.
func (w *World) Exchange(partner, kind int, data []float64) ([]float64, error) {
	if partner < 0 || partner >= len(w.procs) {
		return nil, fmt.Errorf("spmd: partner rank %d outside group", partner)
	}
	if partner == w.index {
		return append([]float64(nil), data...), nil
	}
	// Copy before sending: virtual processors have distinct address
	// spaces, so a message must carry a snapshot, not a view the caller
	// may overwrite after Exchange returns.
	if err := w.Send(partner, kind, append([]float64(nil), data...)); err != nil {
		return nil, err
	}
	return w.RecvFloats(partner, kind)
}

// Reserved collective kinds.
const (
	kindBarrier = -1
	kindReduce  = -2
	kindBcast   = -3
	kindGather  = -4
)

// Barrier blocks until all group members have reached it. Binomial-tree
// gather to rank 0 followed by a tree broadcast; correct for any group
// size.
func (w *World) Barrier() error {
	if _, err := w.treeGather(kindBarrier, nil, nil); err != nil {
		return err
	}
	_, err := w.treeBcast(kindBarrier, nil)
	return err
}

// treeGather combines values up a binomial tree rooted at rank 0. combine
// may be nil for pure synchronisation. Returns the combined value at rank
// 0; other ranks return their partial value.
func (w *World) treeGather(kind int, val any, combine func(a, b any) any) (any, error) {
	p := len(w.procs)
	me := w.index
	for step := 1; step < p; step *= 2 {
		if me%(2*step) == 0 {
			src := me + step
			if src < p {
				m, err := w.recvInternal(src, kind)
				if err != nil {
					return nil, err
				}
				if combine != nil {
					val = combine(val, m.Data)
				}
			}
		} else {
			dst := me - step
			if err := w.sendInternal(dst, kind, val); err != nil {
				return nil, err
			}
			break
		}
	}
	return val, nil
}

// treeBcast distributes val from rank 0 down a binomial tree; every rank
// returns the broadcast value.
func (w *World) treeBcast(kind int, val any) (any, error) {
	p := len(w.procs)
	me := w.index
	// Find the highest step at which this rank receives.
	step := 1
	for step < p {
		step *= 2
	}
	if me != 0 {
		// Receive from parent: the parent of rank r is r with its lowest
		// set bit cleared, at the step equal to that bit.
		low := me & -me
		parent := me - low
		m, err := w.recvInternal(parent, kind)
		if err != nil {
			return nil, err
		}
		val = m.Data
	}
	// Forward to children: ranks me+s for each s smaller than my lowest
	// set bit (or any s for rank 0), descending.
	limit := me & -me
	if me == 0 {
		limit = step
	}
	for s := limit / 2; s >= 1; s /= 2 {
		dst := me + s
		if dst < p {
			if err := w.sendInternal(dst, kind, val); err != nil {
				return nil, err
			}
		}
	}
	return val, nil
}

// Bcast broadcasts data from the group member at rank root to all members;
// every member returns the broadcast value.
func (w *World) Bcast(root int, data any) (any, error) {
	if root < 0 || root >= len(w.procs) {
		return nil, fmt.Errorf("spmd: root rank %d outside group", root)
	}
	// Rotate ranks so the algorithm can always root at 0.
	rot := w.rotated(root)
	return rot.treeBcast(kindBcast, data)
}

// rotated returns a view of the world with ranks relabelled so that `root`
// becomes rank 0. Message routing still uses true processor numbers.
func (w *World) rotated(root int) *World {
	p := len(w.procs)
	procs := make([]int, p)
	for i := 0; i < p; i++ {
		procs[i] = w.procs[(i+root)%p]
	}
	return &World{
		procs:    procs,
		index:    (w.index - root + p) % p,
		callID:   w.callID,
		router:   w.router,
		deadline: w.deadline,
	}
}

// Reduce combines the groups' values with the binary associative operator
// combine, delivering the result at rank root (other ranks receive nil).
func (w *World) Reduce(root int, val any, combine func(a, b any) any) (any, error) {
	if root < 0 || root >= len(w.procs) {
		return nil, fmt.Errorf("spmd: root rank %d outside group", root)
	}
	rot := w.rotated(root)
	wrapped := func(a, b any) any {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		return combine(a, b)
	}
	out, err := rot.treeGather(kindReduce, val, wrapped)
	if err != nil {
		return nil, err
	}
	if w.index == root {
		return out, nil
	}
	return nil, nil
}

// AllReduce combines all members' values and delivers the result to every
// member (reduce to rank 0, then broadcast).
func (w *World) AllReduce(val any, combine func(a, b any) any) (any, error) {
	out, err := w.Reduce(0, val, combine)
	if err != nil {
		return nil, err
	}
	return w.Bcast(0, out)
}

// AllReduceFloat is AllReduce for scalar float64 values.
func (w *World) AllReduceFloat(x float64, combine func(a, b float64) float64) (float64, error) {
	v, err := w.AllReduce(x, func(a, b any) any {
		return combine(a.(float64), b.(float64))
	})
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// AllReduceSum sums a scalar over the group.
func (w *World) AllReduceSum(x float64) (float64, error) {
	return w.AllReduceFloat(x, func(a, b float64) float64 { return a + b })
}

// AllReduceMax maximises a scalar over the group.
func (w *World) AllReduceMax(x float64) (float64, error) {
	return w.AllReduceFloat(x, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// AllGather concatenates every member's slice in rank order and delivers
// the concatenation to all members. It rides the reduce/broadcast trees
// with a rank-indexed merge, so it works for any group size and uneven
// slice lengths.
func (w *World) AllGather(local []float64) ([]float64, error) {
	p := len(w.procs)
	mine := make([][]float64, p)
	mine[w.index] = append([]float64(nil), local...)
	combined, err := w.AllReduce(mine, mergeRanks)
	if err != nil {
		return nil, err
	}
	parts := combined.([][]float64)
	var out []float64
	for i := 0; i < p; i++ {
		out = append(out, parts[i]...)
	}
	return out, nil
}

// mergeRanks is Gather's and AllGather's combine: two rank-indexed
// partial gathers merged into one, each rank's slice taken from
// whichever side holds it.
func mergeRanks(a, b any) any {
	av, bv := a.([][]float64), b.([][]float64)
	out := make([][]float64, len(av))
	for i := range out {
		if av[i] != nil {
			out[i] = av[i]
		} else {
			out[i] = bv[i]
		}
	}
	return out
}

// Gather collects every member's slice at rank root in rank order; other
// ranks return nil.
func (w *World) Gather(root int, local []float64) ([][]float64, error) {
	p := len(w.procs)
	mine := make([][]float64, p)
	mine[w.index] = append([]float64(nil), local...)
	combined, err := w.Reduce(root, mine, mergeRanks)
	if err != nil {
		return nil, err
	}
	if w.index != root {
		return nil, nil
	}
	return combined.([][]float64), nil
}

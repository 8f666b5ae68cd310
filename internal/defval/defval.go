// Package defval implements PCN-style definitional (single-assignment)
// variables, the synchronisation primitive of the task-parallel notation in
// Massingill's "Integrating Task and Data Parallelism" (Caltech, 1993).
//
// A definitional variable starts undefined. It may be defined (assigned a
// value) at most once; a second definition is an error. A reader that needs
// the value of an undefined variable suspends until the variable has been
// defined, after which every reader observes the same value. This gives the
// conflict-freedom property the paper relies on (§3.1.1.4): a shared
// single-assignment variable can change state at most once, so concurrent
// readers can never observe conflicting values.
//
// Cost model: a variable is one word of state, a flag, a mutex, a channel
// pointer and the value. Reading a defined variable (Value, Try,
// IsDefined, Defined) is one atomic load and takes no lock. Define claims
// the variable with a compare-and-swap and publishes the value with a
// store; it takes the mutex and closes a channel only when a reader has
// said it is waiting. So a variable that is defined before anyone reads
// it never makes a channel: New, Define and Value together cost one
// allocation, the variable itself. Only a reader that finds the variable
// undefined makes the broadcast channel and suspends on it.
package defval

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrAlreadyDefined is returned by Define when the variable already has a
// value. PCN treats a second definition of a definition variable as a
// program error; we surface it as an error so callers can decide whether to
// treat it as fatal.
var ErrAlreadyDefined = errors.New("defval: variable already defined")

// The states of a Var. A variable moves undefined -> defining -> defined,
// once; only the Define that wins the compare-and-swap out of undefined
// writes val.
const (
	undefined uint32 = iota
	defining
	defined
)

// closed is the channel Defined returns for every defined variable.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Var is a single-assignment variable holding a value of type T.
// The zero value is ready to use (undefined).
type Var[T any] struct {
	state atomic.Uint32
	// waiting is set, after done is made, by a reader that found the
	// variable undefined. Define reads it after publishing the value;
	// both are sequentially consistent, so either the reader's second
	// look at state sees the definition or Define sees waiting and
	// closes done.
	waiting atomic.Bool
	mu      sync.Mutex // guards done
	done    chan struct{}
	val     T
}

// New returns a fresh undefined variable. Equivalent to &Var[T]{}; provided
// for symmetry with the paper's implicit declaration of definition variables.
func New[T any]() *Var[T] { return &Var[T]{} }

// Define assigns a value to the variable. It returns ErrAlreadyDefined if
// the variable has already been defined (even with an equal value: PCN's
// single-assignment rule is about assignment, not value identity).
func (v *Var[T]) Define(x T) error {
	if !v.state.CompareAndSwap(undefined, defining) {
		return ErrAlreadyDefined
	}
	v.val = x
	v.state.Store(defined)
	if v.waiting.Load() {
		v.mu.Lock()
		close(v.done)
		v.mu.Unlock()
	}
	return nil
}

// MustDefine is Define but panics on double definition. Use in program text
// where a second definition indicates a bug in the calling program, matching
// PCN's runtime behaviour.
func (v *Var[T]) MustDefine(x T) {
	if err := v.Define(x); err != nil {
		panic(err)
	}
}

// Value suspends the calling goroutine until the variable is defined and
// then returns its value. Every caller observes the same value.
func (v *Var[T]) Value() T {
	if v.state.Load() != defined {
		<-v.Defined()
	}
	return v.val
}

// Try reports the value without suspending: ok is false while the variable
// is undefined.
func (v *Var[T]) Try() (x T, ok bool) {
	if v.state.Load() != defined {
		return x, false
	}
	return v.val, true
}

// Defined returns a channel that is closed once the variable is defined,
// suitable for use in select statements (the Go analogue of a PCN data
// guard). A defined variable returns one shared closed channel; only a
// call that finds the variable undefined makes the variable's own.
func (v *Var[T]) Defined() <-chan struct{} {
	if v.state.Load() == defined {
		return closed
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.done == nil {
		v.done = make(chan struct{})
		v.waiting.Store(true)
	}
	if v.state.Load() == defined {
		return closed
	}
	return v.done
}

// IsDefined reports whether the variable currently has a value.
func (v *Var[T]) IsDefined() bool { return v.state.Load() == defined }

// Signal is a valueless definitional variable used purely for
// synchronisation, like the paper's Done variables that are "assigned a
// value for synchronization purposes but the particular value is not of
// interest" (the empty list [] in PCN).
type Signal = Var[struct{}]

// NewSignal returns a fresh undefined Signal.
func NewSignal() *Signal { return &Signal{} }

// Fire defines the signal. Firing twice panics, as with any definitional
// variable.
func Fire(s *Signal) { s.MustDefine(struct{}{}) }

// Wait suspends until the signal has been fired.
func Wait(s *Signal) { s.Value() }

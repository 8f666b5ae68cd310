package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/arraymgr"
	"repro/internal/msg"
)

// TestSentinelUnwrap pins the static unwrap chain: each transport-
// failure sentinel chains to its router-layer counterpart, and the
// non-transport statuses chain to nothing.
func TestSentinelUnwrap(t *testing.T) {
	cases := []struct {
		err  error
		want error
	}{
		{ErrTimeout, msg.ErrTimeout},
		{ErrDown, msg.ErrProcessorDown},
		{ErrClosed, msg.ErrClosed},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("errors.Is(%v, %v) = false", c.err, c.want)
		}
	}
	// Cross-wiring must not match.
	if errors.Is(ErrTimeout, msg.ErrProcessorDown) || errors.Is(ErrDown, msg.ErrClosed) ||
		errors.Is(ErrClosed, msg.ErrTimeout) {
		t.Error("a sentinel unwraps to the wrong router error")
	}
	// Statuses with no router counterpart unwrap to nothing.
	for _, e := range []error{ErrInvalid, ErrNotFound, ErrSystem} {
		for _, target := range []error{msg.ErrTimeout, msg.ErrProcessorDown, msg.ErrClosed} {
			if errors.Is(e, target) {
				t.Errorf("errors.Is(%v, %v) = true", e, target)
			}
		}
	}
}

// TestErrDownRoundTrip drives a real operation into a killed peer and
// checks the error answers both vocabularies: the core sentinel and the
// underlying msg sentinel.
func TestErrDownRoundTrip(t *testing.T) {
	m := New(4)
	defer m.Close()
	m.SetCallPolicy(&arraymgr.CallPolicy{Timeout: 20 * time.Millisecond, Retries: 2})

	a, err := m.NewArray(ArraySpec{Dims: []int{16}})
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	if err := m.Kill(3); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	// Element 15 lives on the killed processor 3.
	_, err = a.Read(15)
	if err == nil {
		t.Fatal("read from killed owner succeeded")
	}
	if !errors.Is(err, ErrDown) {
		t.Fatalf("errors.Is(err, core.ErrDown) = false for %v", err)
	}
	if !errors.Is(err, msg.ErrProcessorDown) {
		t.Fatalf("errors.Is(err, msg.ErrProcessorDown) = false for %v", err)
	}
	if errors.Is(err, msg.ErrTimeout) || errors.Is(err, msg.ErrClosed) {
		t.Fatalf("down error matches an unrelated sentinel: %v", err)
	}
}

// TestErrTimeoutRoundTrip drops every request to one owner so the retry
// budget exhausts, and checks the resulting error matches msg.ErrTimeout
// end to end.
func TestErrTimeoutRoundTrip(t *testing.T) {
	m := New(4)
	defer m.Close()
	m.SetCallPolicy(&arraymgr.CallPolicy{Timeout: 10 * time.Millisecond, Retries: 2})

	a, err := m.NewArray(ArraySpec{Dims: []int{16}})
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	// From here on requests 0 -> 3 always vanish; everything else is
	// reliable. (The plan goes in after creation, whose fan-out sends
	// processor 3's create_local from 0 too.)
	m.VM.Router().SetFaultPlan(&msg.FaultPlan{
		Seed:  1,
		Pairs: map[[2]int]msg.FaultRule{{0, 3}: {Drop: 1}},
	})
	_, err = a.Read(15)
	if err == nil {
		t.Fatal("read across an always-drop link succeeded")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("errors.Is(err, core.ErrTimeout) = false for %v", err)
	}
	if !errors.Is(err, msg.ErrTimeout) {
		t.Fatalf("errors.Is(err, msg.ErrTimeout) = false for %v", err)
	}
	if errors.Is(err, msg.ErrProcessorDown) {
		t.Fatalf("timeout error matches ErrProcessorDown: %v", err)
	}
}

// TestErrClosedRoundTrip shuts the machine down and checks a subsequent
// operation fails with the closed sentinels rather than a generic error.
func TestErrClosedRoundTrip(t *testing.T) {
	m := New(4)
	a, err := m.NewArray(ArraySpec{Dims: []int{16}})
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	m.Close()
	_, err = a.Read(15)
	if err == nil {
		t.Fatal("read on a closed machine succeeded")
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("errors.Is(err, core.ErrClosed) = false for %v", err)
	}
	if !errors.Is(err, msg.ErrClosed) {
		t.Fatalf("errors.Is(err, msg.ErrClosed) = false for %v", err)
	}
}

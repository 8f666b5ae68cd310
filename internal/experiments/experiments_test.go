package experiments

import (
	"io"
	"strings"
	"testing"
)

// Every experiment must run clean: the reports double as integration
// tests of the whole stack.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var sb strings.Builder
			if err := e.Run(&sb); err != nil {
				t.Fatalf("%s (%s): %v\noutput so far:\n%s", e.ID, e.Title, err, sb.String())
			}
			if sb.Len() == 0 {
				t.Fatalf("%s produced no report", e.ID)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("e10"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("unknown ID should not resolve")
	}
}

func TestAllHaveDistinctIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" || e.Figure == "" {
			t.Fatalf("incomplete experiment %+v", e)
		}
	}
	if len(seen) != 23 {
		t.Fatalf("%d experiments, want 23", len(seen))
	}
}

func TestLinalgResidualsExposed(t *testing.T) {
	lu, qr, ortho, err := LinalgResiduals(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lu > 1e-9 || qr > 1e-9 || ortho > 1e-9 {
		t.Fatalf("residuals %g %g %g", lu, qr, ortho)
	}
}

var _ io.Writer = (*strings.Builder)(nil)

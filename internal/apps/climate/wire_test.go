package climate

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/msg/wire"
)

// codecLink joins two in-process machines as the two parts of one
// partitioned machine. Every message is encoded and decoded by the wire
// codec, as the TCP transport does, and each payload type's type codes
// are recorded, along with any payload whose Size misses bytes of its
// encoding (a value somewhere inside took the gob fallback, which Size
// counts as its type code alone).
type codecLink struct {
	peer *msg.Router
	rec  *codecRecord
}

type codecRecord struct {
	mu      sync.Mutex
	codes   map[string]map[byte]bool
	gobbish []string
}

func (l *codecLink) Send(m msg.Message) error {
	b, err := wire.AppendAny(nil, m.Data, false)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%T", m.Data)
	l.rec.mu.Lock()
	if l.rec.codes[name] == nil {
		l.rec.codes[name] = map[byte]bool{}
	}
	l.rec.codes[name][b[0]] = true
	if wire.SizeAny(m.Data) != len(b) {
		l.rec.gobbish = append(l.rec.gobbish, name)
	}
	l.rec.mu.Unlock()
	if m.Data, _, err = wire.ReadAny(b); err != nil {
		return err
	}
	return l.peer.Inject(m)
}

func (l *codecLink) Close() error { return nil }

// TestClimateWireNoGob runs the coupled model on a machine split into
// two parts and requires every payload that crosses between them —
// array creation with its Meta, the coupling reads, the spawn orders of
// both simulations' sessions, their step and close orders, the combine
// and result tuples, the halo slabs — to take a binary codec, never the gob fallback, and the fields
// to stay bit-identical to the sequential reference.
func TestClimateWireNoGob(t *testing.T) {
	const p = 4
	rec := &codecRecord{codes: map[string]map[byte]bool{}}
	links := [2]*codecLink{{rec: rec}, {rec: rec}}
	var parts [2]*core.Machine
	for rank := range parts {
		hosted := make([]bool, p)
		for i := range hosted {
			hosted[i] = i/(p/2) == rank
		}
		link := links[rank]
		parts[rank] = core.New(p, core.WithRouterSetup(func(r *msg.Router) { r.SetTransport(link, hosted) }))
		parts[rank].RT.SetCallBase(uint64(rank) << 40)
		defer parts[rank].Close()
		if err := RegisterPrograms(parts[rank]); err != nil {
			t.Fatal(err)
		}
	}
	links[0].peer, links[1].peer = parts[1].VM.Router(), parts[0].VM.Router()

	cfg := Config{Rows: 8, Cols: 8, Steps: 3, Alpha: 0.15}
	got, err := Run(parts[0], cfg)
	if err != nil {
		t.Fatalf("Run across two parts: %v", err)
	}
	want := RunSequential(cfg)
	for i := range want.Ocean {
		if math.Float64bits(got.Ocean[i]) != math.Float64bits(want.Ocean[i]) ||
			math.Float64bits(got.Atmosphere[i]) != math.Float64bits(want.Atmosphere[i]) {
			t.Fatalf("two-part run differs from the sequential reference at %d", i)
		}
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.gobbish) > 0 {
		t.Fatalf("payloads with bytes Size does not count (a nested gob value): %v", rec.gobbish)
	}
	for _, name := range []string{"*dcall.wireSpawn", "*dcall.stepOrder", "dcall.tuple", "*arraymgr.request", "*arraymgr.wireResponse"} {
		codes := rec.codes[name]
		if len(codes) == 0 {
			t.Errorf("no %s crossed between the parts", name)
		}
		for c := range codes {
			if c < wire.CustomBase {
				t.Errorf("%s crossed under built-in type code %d, not its codec", name, c)
			}
		}
	}
}

package net

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
)

// part is one side of a loopback cluster living inside the test process:
// a router partitioned onto its processor slice plus its transport.
type part struct {
	r  *msg.Router
	tr *Transport
}

// loopback boots an nparts-way cluster over real TCP on 127.0.0.1, all
// parts in this one test process, with optional hooks run after each
// worker dials. parts[0] listens; the rest dial.
func loopback(t *testing.T, p, nparts int, between ...func(rank int, parts []part)) []part {
	t.Helper()
	t0, err := Listen("127.0.0.1:0", p, nparts)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	parts := make([]part, nparts)
	parts[0] = part{r: msg.NewRouter(p), tr: t0}
	parts[0].r.SetTransport(t0, HostedMap(p, nparts, 0))
	t0.Attach(parts[0].r)
	for rank := 1; rank < nparts; rank++ {
		tw, err := Dial(t0.Addr(), p, nparts, rank)
		if err != nil {
			t.Fatalf("Dial rank %d: %v", rank, err)
		}
		parts[rank] = part{r: msg.NewRouter(p), tr: tw}
		parts[rank].r.SetTransport(tw, HostedMap(p, nparts, rank))
		tw.Attach(parts[rank].r)
		for _, f := range between {
			f(rank, parts)
		}
	}
	if err := t0.WaitPeers(10 * time.Second); err != nil {
		t.Fatalf("WaitPeers: %v", err)
	}
	t.Cleanup(func() {
		t0.Shutdown()
		for _, pt := range parts {
			pt.r.Close()
		}
		for _, pt := range parts {
			pt.tr.Wait()
		}
	})
	return parts
}

// refuseMesh closes worker 1's mesh listener right after it dials part
// 0 — before the directory goes out — so worker 2's mesh dial to it is
// refused and the pair falls back to the star relay through part 0.
func refuseMesh(rank int, parts []part) {
	if rank == 1 {
		parts[1].tr.meshLn.Close()
	}
}

// modes is the matrix every contract test runs under, on a 3-part
// cluster whose worker pair (parts 1 and 2) carries the traffic: the
// production mesh, where the pair holds a direct link, and the star
// fallback, where every frame of the pair is relayed by part 0.
var modes = []mode{
	{"mesh", nil},
	{"star-fallback", refuseMesh},
}

type mode struct {
	name    string
	between func(rank int, parts []part) // nil: no hook
}

// boot starts the mode's 3-part cluster of p processors and checks that
// the worker pair's topology is the one the mode names.
func (md mode) boot(t *testing.T, p int) []part {
	t.Helper()
	var parts []part
	if md.between == nil {
		parts = loopback(t, p, 3)
	} else {
		parts = loopback(t, p, 3, md.between)
	}
	if direct := hasPeer(parts[2], 1); direct != (md.between == nil) {
		t.Fatalf("mode %s: worker pair direct link = %v", md.name, direct)
	}
	return parts
}

// modeP processors over 3 parts: part i hosts processors 2i and 2i+1.
const modeP = 6

func recvAt(t *testing.T, pt part, dst, src int, tag msg.Tag) msg.Message {
	t.Helper()
	m, err := pt.r.RecvFromTimeout(dst, src, tag, 10*time.Second)
	if err != nil {
		t.Fatalf("recv at %d from %d: %v", dst, src, err)
	}
	return m
}

// TestSendCapturesPayload pins the deep-copy-at-the-seam contract in
// every mode: the payload is serialized before Send returns, so
// mutating the source buffer afterwards (as pooled-buffer recycling
// does) must not be visible to the receiver — even when the frame is
// still sitting in a writer goroutine's queue.
func TestSendCapturesPayload(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			parts := mode.boot(t, modeP)
			tag := msg.Tag{Class: msg.ClassData, Kind: 7}

			buf := []float64{1, 2, 3, 4}
			if err := parts[2].r.Send(4, 2, tag, buf); err != nil {
				t.Fatalf("Send: %v", err)
			}
			// The sender recycles the buffer the instant Send returns.
			for i := range buf {
				buf[i] = -999
			}

			m := recvAt(t, parts[1], 2, 4, tag)
			got, ok := m.Data.([]float64)
			if !ok {
				t.Fatalf("payload type %T, want []float64", m.Data)
			}
			for i, v := range got {
				if v != float64(i+1) {
					t.Fatalf("got[%d] = %v, want %d: receiver saw post-mutation bytes", i, v, i+1)
				}
			}
		})
	}
}

// TestSendCapturesNestedPayload is the same pin for a [][]float64 (the
// shape of halo slabs): inner rows must be captured too.
func TestSendCapturesNestedPayload(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			parts := mode.boot(t, modeP)
			tag := msg.Tag{Class: msg.ClassData, Kind: 8}

			rows := [][]float64{{1, 2}, {3, 4}}
			if err := parts[1].r.Send(3, 5, tag, rows); err != nil {
				t.Fatalf("Send: %v", err)
			}
			rows[0][0], rows[1][1] = -1, -1

			m := recvAt(t, parts[2], 5, 3, tag)
			got := m.Data.([][]float64)
			want := [][]float64{{1, 2}, {3, 4}}
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("got[%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
					}
				}
			}
		})
	}
}

// TestFIFOAcrossWire verifies the ordering half of the transport
// contract in every mode: delivery between a fixed (src, dst) pair is
// FIFO, over a direct link or through the relay.
func TestFIFOAcrossWire(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			parts := mode.boot(t, modeP)
			tag := msg.Tag{Class: msg.ClassData, Kind: 1}

			const n = 200
			for i := 0; i < n; i++ {
				if err := parts[2].r.Send(4, 2, tag, i); err != nil {
					t.Fatalf("Send %d: %v", i, err)
				}
			}
			for i := 0; i < n; i++ {
				m := recvAt(t, parts[1], 2, 4, tag)
				if m.Data.(int) != i {
					t.Fatalf("message %d arrived carrying %v: reordered or duplicated", i, m.Data)
				}
			}
		})
	}
}

// TestWorkerToWorkerPaths exercises the worker↔worker leg in every
// mode: one hop over the mesh link, or two hops through the part-0
// relay when the link is missing — the payload must arrive either way.
func TestWorkerToWorkerPaths(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			parts := mode.boot(t, 3) // proc i hosted by part i
			tag := msg.Tag{Class: msg.ClassData, Kind: 2}

			if err := parts[1].r.Send(1, 2, tag, "across the wire"); err != nil {
				t.Fatalf("Send: %v", err)
			}
			m := recvAt(t, parts[2], 2, 1, tag)
			if m.Data.(string) != "across the wire" {
				t.Fatalf("worker-to-worker payload = %v", m.Data)
			}

			// And the reply leg worker -> part 0.
			if err := parts[2].r.Send(2, 0, tag, 42); err != nil {
				t.Fatalf("reply Send: %v", err)
			}
			m = recvAt(t, parts[0], 0, 2, tag)
			if m.Data.(int) != 42 {
				t.Fatalf("reply payload = %v", m.Data)
			}
		})
	}
}

// hasPeer reports whether a part holds a direct connection to rank.
func hasPeer(pt part, rank int) bool {
	pt.tr.mu.Lock()
	defer pt.tr.mu.Unlock()
	_, ok := pt.tr.peers[rank]
	return ok
}

// TestMeshDirectLink pins the topology claim itself: the worker pair
// holds a direct connection (no relay through part 0).
func TestMeshDirectLink(t *testing.T) {
	t.Run("mesh", func(t *testing.T) {
		parts := loopback(t, 3, 3)
		if !hasPeer(parts[2], 1) || !hasPeer(parts[1], 2) {
			t.Fatal("workers 1 and 2 hold no direct link")
		}
	})
}

// TestMeshFIFOPerPair is the mesh contract pin: three parts, 200
// messages on every ordered (src, dst)
// pair concurrently — each pair must deliver in order with no loss and
// no duplication, whether the pair rides a mesh link, the star spoke,
// or the relay.
func TestMeshFIFOPerPair(t *testing.T) {
	parts := loopback(t, 3, 3)
	const n = 200

	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			src, dst := src, dst
			tag := msg.Tag{Class: msg.ClassData, Kind: 10 + 3*src + dst}
			wg.Add(2)
			go func() { // sender
				defer wg.Done()
				for i := 0; i < n; i++ {
					if err := parts[src].r.Send(src, dst, tag, i); err != nil {
						errs <- fmt.Errorf("send %d->%d #%d: %v", src, dst, i, err)
						return
					}
				}
			}()
			go func() { // receiver
				defer wg.Done()
				for i := 0; i < n; i++ {
					m, err := parts[dst].r.RecvFromTimeout(dst, src, tag, 10*time.Second)
					if err != nil {
						errs <- fmt.Errorf("recv %d->%d #%d: %v", src, dst, i, err)
						return
					}
					if m.Data.(int) != i {
						errs <- fmt.Errorf("pair %d->%d: message %d carried %v: reordered or duplicated", src, dst, i, m.Data)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStarFallbackWhenMeshDialRefused kills one worker's mesh listener
// before the directory goes out: the dial to it is refused, WaitPeers
// must still succeed, and traffic between the two workers must flow —
// over the star relay, pinned by the absence of a direct link.
func TestStarFallbackWhenMeshDialRefused(t *testing.T) {
	parts := loopback(t, 3, 3, refuseMesh)

	if hasPeer(parts[2], 1) || hasPeer(parts[1], 2) {
		t.Fatal("dial to a closed listener produced a direct link")
	}

	tag := msg.Tag{Class: msg.ClassData, Kind: 3}
	if err := parts[2].r.Send(2, 1, tag, "via the relay"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m := recvAt(t, parts[1], 1, 2, tag)
	if m.Data.(string) != "via the relay" {
		t.Fatalf("fallback payload = %v", m.Data)
	}
	// The reverse direction also falls back (worker 1 never dials 2;
	// routes are independent per sender).
	if err := parts[1].r.Send(1, 2, tag, "back again"); err != nil {
		t.Fatalf("reverse Send: %v", err)
	}
	m = recvAt(t, parts[2], 2, 1, tag)
	if m.Data.(string) != "back again" {
		t.Fatalf("reverse fallback payload = %v", m.Data)
	}
}

// TestKillPropagates verifies a kill lands machine-wide in every mode:
// the hosting part's mailbox dies for real, other parts observe Down
// and drop sends to the dead processor instead of shipping frames. The
// kill originates on worker 2 and targets a processor on worker 1, so
// in the fallback mode the notice reaches its host only by part 0's
// re-flood.
func TestKillPropagates(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			parts := mode.boot(t, modeP)

			if err := parts[2].tr.Kill(3); err != nil {
				t.Fatalf("Kill: %v", err)
			}
			// Origin part: synchronous remote-down record.
			if !parts[2].r.Down(3) {
				t.Fatal("origin part does not report processor 3 down")
			}
			// Hosting part: the kill notice travels the wire; receives at
			// the dead processor fail with ErrProcessorDown once it lands.
			waitDown(t, parts[1], 3)
			_, err := parts[1].r.RecvFromTimeout(3, msg.AnySource, msg.Tag{Class: msg.ClassData}, time.Second)
			if !errors.Is(err, msg.ErrProcessorDown) {
				t.Fatalf("recv at killed processor: %v, want ErrProcessorDown", err)
			}
			// Sends to the dead processor from the origin part are dropped
			// without error (dead peers silently eat traffic, as in-process).
			if err := parts[2].r.Send(4, 3, msg.Tag{Class: msg.ClassData, Kind: 3}, 1); err != nil {
				t.Fatalf("send to dead processor: %v, want silent drop", err)
			}
			// The living processor on the same part is unaffected.
			tag := msg.Tag{Class: msg.ClassData, Kind: 4}
			if err := parts[2].r.Send(4, 2, tag, "alive"); err != nil {
				t.Fatalf("send to living processor: %v", err)
			}
			m := recvAt(t, parts[1], 2, 4, tag)
			if m.Data.(string) != "alive" {
				t.Fatalf("living processor payload = %v", m.Data)
			}
		})
	}
}

func waitDown(t *testing.T, pt part, proc int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pt.r.Down(proc) {
		if time.Now().After(deadline) {
			t.Fatalf("part never observed processor %d down", proc)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKillFloodReachesAllMeshPeers pins machine-wide kill flooding on
// the mesh: a worker-originated kill of a processor hosted on a third
// part must land on every part — over the direct links and via part
// 0's re-flood — and duplicate deliveries must be harmless.
func TestKillFloodReachesAllMeshPeers(t *testing.T) {
	parts := loopback(t, 3, 3) // proc i hosted by part i

	// Worker 1 kills processor 2 (hosted on part 2): the notice travels
	// the 1->2 mesh link and the 1->0 spoke, and part 0 re-floods it.
	if err := parts[1].tr.Kill(2); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	for rank := 0; rank < 3; rank++ {
		waitDown(t, parts[rank], 2)
	}
	_, err := parts[2].r.RecvFromTimeout(2, msg.AnySource, msg.Tag{Class: msg.ClassData}, time.Second)
	if !errors.Is(err, msg.ErrProcessorDown) {
		t.Fatalf("recv at killed processor: %v, want ErrProcessorDown", err)
	}
	// Traffic between the survivors still flows on every path.
	tag := msg.Tag{Class: msg.ClassData, Kind: 5}
	if err := parts[1].r.Send(1, 0, tag, "still here"); err != nil {
		t.Fatalf("survivor Send: %v", err)
	}
	m := recvAt(t, parts[0], 0, 1, tag)
	if m.Data.(string) != "still here" {
		t.Fatalf("survivor payload = %v", m.Data)
	}
}

// TestPartBounds pins the contiguous split: parts cover 0..p-1 exactly
// once, in order, with sizes differing by at most one.
func TestPartBounds(t *testing.T) {
	for _, tc := range []struct{ p, nparts int }{{4, 2}, {5, 2}, {7, 3}, {3, 3}, {8, 4}} {
		next := 0
		for rank := 0; rank < tc.nparts; rank++ {
			lo, hi := PartBounds(tc.p, tc.nparts, rank)
			if lo != next {
				t.Fatalf("p=%d nparts=%d rank=%d: lo=%d, want %d", tc.p, tc.nparts, rank, lo, next)
			}
			if sz := hi - lo; sz < tc.p/tc.nparts || sz > tc.p/tc.nparts+1 {
				t.Fatalf("p=%d nparts=%d rank=%d: size %d not balanced", tc.p, tc.nparts, rank, sz)
			}
			next = hi
		}
		if next != tc.p {
			t.Fatalf("p=%d nparts=%d: parts cover %d procs", tc.p, tc.nparts, next)
		}
	}
}

// TestFrameClasses pins the frame pool's size classes: a drawn frame
// holds its n bytes on both sides of every class boundary, a buffer
// recycles into the class below its capacity (so one that grew past its
// class still only serves frames it can hold), and nothing outside the
// class range is pooled.
func TestFrameClasses(t *testing.T) {
	for shift := minFrameShift; shift <= maxFrameShift; shift++ {
		for _, n := range []int{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			bp := getBufN(n)
			if len(*bp) != n || cap(*bp) < n {
				t.Errorf("getBufN(%d): len %d cap %d", n, len(*bp), cap(*bp))
			}
			c := frameClass(n)
			if c < len(framePools) && poolClass(cap(*bp)) != c {
				t.Errorf("getBufN(%d) drew from class %d but recycles into class %d", n, c, poolClass(cap(*bp)))
			}
			if n > 1<<maxFrameShift && poolClass(cap(*bp)) != -1 {
				t.Errorf("a %d-byte frame, above the top class, is pooled in class %d", n, poolClass(cap(*bp)))
			}
			putBuf(bp)
		}
	}
	for _, c := range []struct{ cap, class int }{
		{0, -1},
		{1<<minFrameShift - 1, -1},
		{1 << minFrameShift, 0},
		{1<<(minFrameShift+1) - 1, 0}, // grew past class 0, short of class 1
		{3 << minFrameShift, 1},
		{1<<maxFrameShift - 1, maxFrameShift - minFrameShift - 1},
		{1 << maxFrameShift, maxFrameShift - minFrameShift},
		{1<<maxFrameShift + 1, -1},
	} {
		if got := poolClass(c.cap); got != c.class {
			t.Errorf("poolClass(%d) = %d, want %d", c.cap, got, c.class)
		}
		if c.class >= 0 && c.cap < 1<<(c.class+minFrameShift) {
			t.Errorf("capacity %d recycles into class %d, whose frames need %d bytes", c.cap, c.class, 1<<(c.class+minFrameShift))
		}
	}
}

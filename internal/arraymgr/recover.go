// The failover half of the recovery plane: buddy replication of section
// writes, promotion of buddies to primaries after a fail-stop kill, and
// checkpoint/restart as the fallback for arrays created without
// replicas.
//
// Replication is owner-side: the processor that applies a primary write
// forwards the same payload to the written slot's buddy owners
// (darray.Meta.BuddyOwner) as one mirror_write message each — exactly
// <= 1 extra message per write-side owner per replica, and zero change
// to the healthy read path. Buddy copies share the primary's uniform
// section layout, so local rectangle bounds and storage offsets are
// valid verbatim on the mirror.
//
// Failover is metadata-only: when a coordinator call fails with
// StatusDown, the recovery coordinator promotes each dead slot's first
// live buddy to primary by rewriting Meta.Procs under a bumped
// ownership epoch and broadcasting the new meta to every entry holder.
// The promoted processor already holds the slot's bytes (its buddy
// copy); owner routing by grid slot (request.slot + entry.sectionFor)
// makes the copy authoritative without moving a single element. The
// failed coordinator then runs again, under a fresh completion entry.
package arraymgr

import (
	"repro/internal/darray"
	"repro/internal/grid"
	"repro/internal/msg"
	"repro/internal/trace"
)

// RecoveryStats counts the recovery plane's activity.
type RecoveryStats struct {
	Promotions      uint64 // slots whose buddy was promoted to primary
	Replays         uint64 // coordinator calls replayed after a promotion
	Mirrors         uint64 // mirror_write messages sent to buddy owners
	MirrorFailures  uint64 // mirrors skipped or lost to a dead/silent buddy
	CheckpointBytes uint64 // bytes drained into checkpoint images
}

// RecoveryStats returns the recovery-plane counters.
func (m *Manager) RecoveryStats() RecoveryStats {
	return RecoveryStats{
		Promotions:      m.promotions.Load(),
		Replays:         m.replays.Load(),
		Mirrors:         m.mirrors.Load(),
		MirrorFailures:  m.mirrorFailures.Load(),
		CheckpointBytes: m.checkpointBytes.Load(),
	}
}

// Stats renders the recovery counters as a uniform stat list.
func (s RecoveryStats) Stats() []trace.Stat {
	return []trace.Stat{
		{Name: "promotions", Value: s.Promotions},
		{Name: "replays", Value: s.Replays},
		{Name: "mirrors", Value: s.Mirrors},
		{Name: "mirror_failures", Value: s.MirrorFailures},
		{Name: "checkpoint_bytes", Value: s.CheckpointBytes},
	}
}

// UseMembership installs (or, with nil, removes) a heartbeat membership
// view. Coordinators consult it before sending: a destination the
// monitor has declared dead fails fast with StatusDown instead of
// burning a full per-call retry budget.
func (m *Manager) UseMembership(mem *msg.Membership) { m.membership.Store(mem) }

// mirrorWrite forwards one applied primary write to the written slot's
// buddy owners, one mirror_write message per live buddy, and waits for
// their acknowledgements — a replicated write is durable on every live
// buddy by the time the coordinator's call returns, which is what makes
// post-promotion reads bit-identical. A dead buddy degrades the replica
// (counted in MirrorFailures), never the primary write. Called after
// the server lock is released: buddies mirror to each other, so
// awaiting under the lock could deadlock a buddy ring.
func (m *Manager) mirrorWrite(proc int, meta *darray.Meta, req *request) Status {
	if meta.Replicas == 0 || req.op == opMirrorWrite {
		return StatusOK
	}
	router := m.machine.Router()
	var buddies []int
	for j := 1; j <= meta.Replicas; j++ {
		buddy := meta.BuddyOwner(req.slot, j)
		if buddy == proc {
			continue
		}
		if router.Down(buddy) {
			m.mirrorFailures.Add(1)
			continue
		}
		buddies = append(buddies, buddy)
	}
	if len(buddies) == 0 {
		return StatusOK
	}
	c := m.open(len(buddies))
	for i, buddy := range buddies {
		m.mirrors.Add(1)
		m.send(c, i, proc, buddy, &request{
			op: opMirrorWrite, id: req.id, slot: req.slot,
			lo: req.lo, hi: req.hi, step: req.step, runs: req.runs, offs: req.offs, vals: req.vals,
		})
	}
	st := StatusOK
	m.gather(c, nil, func(_ int, r response) {
		switch r.status {
		case StatusOK:
		case StatusDown, StatusTimeout:
			// The buddy died (or went silent) mid-mirror: fail-stop says
			// it will never serve a read again, so losing its copy cannot
			// produce a divergent result — degrade and carry on.
			m.mirrorFailures.Add(1)
		default:
			if r.status > st {
				st = r.status
			}
		}
	})
	return st
}

// RecoverArray promotes buddies to primaries for every dead owner of the
// array: each dead slot's first live buddy becomes its primary under a
// bumped ownership epoch, and the new metadata is broadcast to every
// live entry holder. StatusOK means the array is fully served by live
// processors (possibly with nothing to do); StatusDown means some slot
// lost its primary and every buddy — checkpoint/restart territory.
func (m *Manager) RecoverArray(onProc int, id darray.ID) Status {
	if st := m.enter(onProc, "recover_array", id); st != StatusOK {
		return st
	}
	_, st := m.recoverArray(onProc, id)
	return st
}

// recoverArray is RecoverArray reporting how many slots were promoted,
// which the replay wrapper uses to decide whether replaying can help.
func (m *Manager) recoverArray(onProc int, id darray.ID) (int, Status) {
	e, st := m.lookup(onProc, id)
	if st != StatusOK {
		return 0, st
	}
	srv := m.servers[onProc]
	srv.mu.Lock()
	meta := e.meta.Clone()
	srv.mu.Unlock()
	router := m.machine.Router()
	promoted := 0
	for slot := 0; slot < meta.GridSize(); slot++ {
		if !router.Down(meta.Procs[slot]) {
			continue
		}
		next := -1
		for j := 1; j <= meta.Replicas; j++ {
			if b := meta.BuddyOwner(slot, j); !router.Down(b) {
				next = b
				break
			}
		}
		if next < 0 {
			// No replicas (k=0) or every buddy dead too: replication
			// cannot recover this slot.
			return 0, StatusDown
		}
		if meta.Origins == nil {
			// First promotion: preserve the creation-time assignment that
			// buddy placement and replica allocation were computed from.
			meta.Origins = append([]int(nil), meta.Procs...)
		}
		meta.Procs[slot] = next
		promoted++
	}
	if promoted == 0 {
		return 0, StatusOK
	}
	meta.Epoch++
	m.promotions.Add(uint64(promoted))
	// Broadcast the promoted metadata to every live entry holder (origin
	// owners + creator + this coordinator) through the control fan-out,
	// which skips and ignores dead holders. doUpdateMeta's epoch guard
	// makes stragglers and races harmless.
	targets := map[int]bool{onProc: true, id.Proc: true}
	for _, p := range meta.OriginProcs() {
		targets[p] = true
	}
	for _, p := range meta.Procs[:meta.GridSize()] {
		targets[p] = true
	}
	return promoted, m.fanout(onProc, &request{op: opUpdateMeta, id: id, meta: meta}, targets)
}

// maxRecoverAttempts bounds the promote-and-replay loop of one
// coordinator call: each attempt can only be justified by new deaths,
// and P is finite.
const maxRecoverAttempts = 3

// sendData runs one data-plane coordinator call on the calling
// goroutine with transparent failover: when the call fails because an
// owner died (StatusDown, or a StatusTimeout that turns out to be a
// kill), the arrays' dead owners are promoted and the coordinator runs
// again, drawing fresh owner requests. Replays re-execute any partial
// work of the failed attempt; every data-plane op is idempotent (same
// payload, same destination state), so the result is bit-identical to
// an undisturbed run. With no policy installed there is no failure
// detection, hence no replay.
func (m *Manager) sendData(onProc int, ids []darray.ID, run func() response) response {
	r := run()
	if m.policy.Load() == nil {
		return r
	}
	for attempt := 0; attempt < maxRecoverAttempts && (r.status == StatusDown || r.status == StatusTimeout); attempt++ {
		promoted := 0
		for _, id := range ids {
			p, _ := m.recoverArray(onProc, id)
			promoted += p
		}
		if promoted == 0 {
			// Nothing was promotable: the failure is a plain timeout or an
			// unrecoverable kill — surface it as-is.
			break
		}
		m.replays.Add(1)
		r = run()
	}
	return r
}

// CheckpointImage is a self-contained snapshot of one distributed array:
// everything needed to recreate it — possibly on a different (smaller)
// processor set — plus a dense row-major copy of its elements. It is the
// k=0 fallback of the recovery plane: arrays created without replicas
// survive kills only through images taken before the failure. Borders
// are not part of the image (a restored array starts borderless; Verify
// can retrofit them).
type CheckpointImage struct {
	Type     darray.ElemType
	Dims     []int
	Distrib  []grid.Decomp
	Indexing grid.Indexing
	Procs    []int // creation-time processor set of the source array
	Replicas int
	Data     []float64 // dense row-major snapshot of the whole array
}

// Checkpoint drains the array into a CheckpointImage through the bulk
// read plane: one request per owning processor, assembled into one dense
// buffer on onProc.
func (m *Manager) Checkpoint(onProc int, id darray.ID) (*CheckpointImage, Status) {
	meta, st := m.Meta(onProc, id)
	if st != StatusOK {
		return nil, st
	}
	lo := make([]int, meta.NDims())
	hi := append([]int(nil), meta.Dims...)
	data := make([]float64, grid.RectSize(lo, hi))
	if st := m.ReadBlockInto(onProc, id, lo, hi, data); st != StatusOK {
		return nil, st
	}
	// The resolved distributions reduce to the decomposition vocabulary,
	// so a restore on fewer processors re-derives a valid layout.
	dists := meta.ResolvedDists()
	distrib := make([]grid.Decomp, len(dists))
	for i, d := range dists {
		switch d.Kind {
		case grid.DistCyclic:
			distrib[i] = grid.CyclicDefault()
		case grid.DistBlockCyclic:
			distrib[i] = grid.BlockCyclicOf(d.B)
		default:
			distrib[i] = grid.BlockDefault()
		}
	}
	m.checkpointBytes.Add(uint64(8 * len(data)))
	return &CheckpointImage{
		Type:     meta.Type,
		Dims:     hi,
		Distrib:  distrib,
		Indexing: meta.Indexing,
		Procs:    append([]int(nil), meta.OriginProcs()...),
		Replicas: meta.Replicas,
		Data:     data,
	}, StatusOK
}

// Restore recreates an array from a checkpoint image on the given
// processors — nil means the image's processors that are still alive —
// and writes the snapshot back through the bulk write plane. The
// replication degree is carried over, clamped to the new processor
// count. It returns the new array's ID: restart is re-creation, so the
// old ID stays dead.
func (m *Manager) Restore(onProc int, img *CheckpointImage, procs []int) (darray.ID, Status) {
	if img == nil {
		return darray.ID{}, StatusInvalid
	}
	if procs == nil {
		router := m.machine.Router()
		for _, p := range img.Procs {
			if !router.Down(p) {
				procs = append(procs, p)
			}
		}
	}
	if len(procs) == 0 {
		return darray.ID{}, StatusDown
	}
	k := img.Replicas
	if k >= len(procs) {
		k = len(procs) - 1
	}
	id, st := m.CreateArray(onProc, CreateSpec{
		Type: img.Type, Dims: img.Dims, Procs: procs, Distrib: img.Distrib,
		Borders: NoBorderSpec{}, Indexing: img.Indexing, Replicas: k,
	})
	if st != StatusOK {
		return darray.ID{}, st
	}
	lo := make([]int, len(img.Dims))
	if st := m.WriteBlock(onProc, id, lo, img.Dims, img.Data); st != StatusOK {
		return darray.ID{}, st
	}
	return id, StatusOK
}

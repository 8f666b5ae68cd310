// The descriptor form of the cyclic rectangle path: when every owner's
// share of a (lo, hi, step) lattice is a per-dimension arithmetic
// progression (darray.Meta.StridedShares), the coordinator sends each
// owner O(ndims) bounds+step descriptors instead of a materialized
// offset vector with one entry per element — the owner serves them with
// the same pooled strided-rectangle routine as the regular plane, and
// the coordinator repacks each reply into the request lattice.
package arraymgr

import (
	"repro/internal/darray"
	"repro/internal/grid"
)

// copyShare moves one owner share's packed piece between the dense
// request-lattice buffer (full) and the share's packed sub-buffer
// (sub): unpacking a read reply into place when toFull, packing the
// values of a write otherwise. Element t (per-dimension t[i], row-major
// over the share's lattice) of the piece sits at request-lattice
// position PosLo[i] + t[i]*PosStep[i]; sdims are the request lattice's
// per-dimension point counts.
func copyShare(toFull bool, full, sub []float64, sh darray.StridedShare, sdims []int) {
	n := len(sdims)
	fullStride := make([]int, n)
	st := 1
	for i := n - 1; i >= 0; i-- {
		fullStride[i] = st
		st *= sdims[i]
	}
	cnt := make([]int, n)
	estride := make([]int, n)
	pos0 := 0
	for i := 0; i < n; i++ {
		cnt[i] = (sh.Hi[i] - sh.Lo[i] + sh.Step[i] - 1) / sh.Step[i]
		estride[i] = sh.PosStep[i] * fullStride[i]
		pos0 += sh.PosLo[i] * fullStride[i]
	}
	last := n - 1
	run := cnt[last]
	contiguous := sh.PosStep[last] == 1
	idx := make([]int, n)
	off := pos0
	k := 0
	for {
		if contiguous {
			if toFull {
				copy(full[off:off+run], sub[k:k+run])
			} else {
				copy(sub[k:k+run], full[off:off+run])
			}
			k += run
		} else {
			o := off
			for j := 0; j < run; j++ {
				if toFull {
					full[o] = sub[k]
				} else {
					sub[k] = full[o]
				}
				k++
				o += estride[last]
			}
		}
		i := last - 1
		for ; i >= 0; i-- {
			idx[i]++
			off += estride[i]
			if idx[i] < cnt[i] {
				break
			}
			off -= cnt[i] * estride[i]
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// readShares drives the gather half of the descriptor transfer: one
// concurrent read_block_strided_local request per remote owner share
// (all scattered before any reply is awaited), the local share serviced
// in place, and each reply repacked into its request-lattice positions
// in out.
func (m *Manager) readShares(proc int, id darray.ID, shares []darray.StridedShare, sdims []int, out []float64) Status {
	replies := make([]*request, len(shares))
	for i, sh := range shares {
		if sh.Proc == proc {
			continue
		}
		replies[i] = m.sendAsync(proc, sh.Proc,
			&request{op: opReadBlockStridedLocal, id: id, lo: sh.Lo, hi: sh.Hi, step: sh.Step, slot: sh.Slot})
	}
	status := StatusOK
	// unpack places one owner's reply at its request-lattice positions
	// and returns the pooled reply buffer to the owner's server.
	unpack := func(i int, r response) {
		if r.status != StatusOK {
			status = r.status
			return
		}
		copyShare(true, out, r.vals, shares[i], sdims)
		m.recycle(shares[i].Proc, r.vals)
	}
	for i, sh := range shares {
		if replies[i] != nil {
			continue
		}
		unpack(i, m.doReadBlockStridedLocal(proc, &request{id: id, lo: sh.Lo, hi: sh.Hi, step: sh.Step, slot: sh.Slot}))
	}
	for i := range shares {
		if replies[i] == nil {
			continue
		}
		unpack(i, m.await(replies[i]))
	}
	return status
}

// writeShares drives the scatter half of the descriptor transfer: each
// remote owner share receives one write_block_strided_local request
// carrying its bounds and a fresh packed snapshot of its values
// (messages between address spaces carry copies, never views), all
// posted before any reply is awaited; the local share is written in
// place and the statuses gathered.
func (m *Manager) writeShares(proc int, id darray.ID, shares []darray.StridedShare, sdims []int, vals []float64) Status {
	// pack builds one share's value vector in the share's row-major
	// lattice order.
	pack := func(sh darray.StridedShare) []float64 {
		sub := make([]float64, grid.StridedRectSize(sh.Lo, sh.Hi, sh.Step))
		copyShare(false, vals, sub, sh, sdims)
		return sub
	}
	replies := make([]*request, len(shares))
	for i, sh := range shares {
		if sh.Proc == proc {
			continue
		}
		replies[i] = m.sendAsync(proc, sh.Proc,
			&request{op: opWriteBlockStridedLocal, id: id, lo: sh.Lo, hi: sh.Hi, step: sh.Step, vals: pack(sh), slot: sh.Slot})
	}
	status := StatusOK
	// Service every local share: after a failover promotion one processor
	// can own several slots, so "local" is not necessarily unique.
	for i, sh := range shares {
		if replies[i] != nil {
			continue
		}
		if r := m.doWriteBlockStridedLocal(proc, &request{id: id, lo: sh.Lo, hi: sh.Hi, step: sh.Step, vals: pack(sh), slot: sh.Slot}); r.status != StatusOK {
			status = r.status
		}
	}
	for i := range shares {
		if replies[i] == nil {
			continue
		}
		if r := m.await(replies[i]); r.status != StatusOK {
			status = r.status
		}
	}
	return status
}

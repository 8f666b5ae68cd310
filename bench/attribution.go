package main

import "fmt"

// The blocking-path attribution: for each array-operation family of a
// workload, the layer probes that lie on the path the caller waits for,
// each with the number of times (or elements, or KiB) it is paid. The sum
// is what the layers explain; measured p50 minus the sum is reported as
// arraymgr.unattributed_<family>_us — scheduling, wake-ups and everything
// the probes do not see. README.md derives each formula.

// term is one probe's contribution to a blocking path, in microseconds:
// mult * value * unitUs, or mult / value for a rate (MB/s, with mult in
// bytes, gives microseconds directly).
type term struct {
	probe string
	mult  float64
}

const (
	kib         = 1024.0
	largeKiB    = 8 * largePiece / kib         // one owner's piece of the 8 MiB array
	panelKiB    = 8 * panelN * panelCols / kib // one 512x128 panel
	panelElems  = panelN * panelCols
	panelPerDst = panelElems / machineP // a panel's share for one cyclic owner
)

// usPerUnit converts a probe's value to microseconds per unit of mult.
var usPerUnit = map[string]float64{
	"ns": 1e-3, "ns/elem": 1e-3, "ns/KiB": 1e-3, "us": 1,
}

// blockingPaths[shape][family] lists the terms. H is one mailbox hop; a
// reply or ack delivered over an in-process channel is priced as one hop
// too (a goroutine hand-off either way).
var blockingPaths = map[shapeClass]map[family][]term{
	// One process. caller → coordinator → 3 remote owners (concurrent) →
	// coordinator → caller: 4 hand-offs, one owner split, one owner-side
	// copy and one coordinator-side copy of a 256-element piece.
	shapeSmallInproc: {
		famRead:   {{"msg.hop_ns", 4}, {"darray.owner_blocks_ns", 1}, {"darray.copy_small_ns", 2}},
		famWrite:  {{"msg.hop_ns", 4}, {"darray.owner_blocks_ns", 1}, {"darray.copy_small_ns", 2}},
		famGather: {{"msg.hop_ns", 4}, {"darray.owner_indices_ns", 1}, {"darray.gather_ns_per_elem", 2 * gatherK}},
		// + the source owner → destination owner ship: 5 hand-offs; each
		// owner packs and unpacks its 256 elements by offset.
		famRedist: {{"msg.hop_ns", 5}, {"darray.transfer_schedule_small_ns", 1}, {"darray.copy_offsets_ns_per_elem", 2 * smallPiece}},
	},
	// Two parts. The caller ↔ coordinator hand-offs stay in-process (2
	// hops); the slowest owner is across the wire: one transport round
	// trip carrying a 2 KiB piece.
	shapeSmallWire: {
		famRead:   {{"msg.hop_ns", 2}, {"darray.owner_blocks_ns", 1}, {"net.rtt_2k_us", 1}, {"darray.copy_small_ns", 2}},
		famWrite:  {{"msg.hop_ns", 2}, {"darray.owner_blocks_ns", 1}, {"net.rtt_2k_us", 1}, {"darray.copy_small_ns", 2}},
		famGather: {{"msg.hop_ns", 2}, {"darray.owner_indices_ns", 1}, {"net.rtt_small_us", 1}, {"darray.gather_ns_per_elem", 2 * gatherK}, {"wire.ints_ns_per_elem", gatherK / 2}},
		// order → (local source) ship across → ack back: three one-way
		// crossings in sequence at worst, 1.5 round trips.
		famRedist: {{"msg.hop_ns", 2}, {"darray.transfer_schedule_small_ns", 1}, {"net.rtt_small_us", 1.5}, {"darray.copy_offsets_ns_per_elem", 2 * smallPiece}},
	},
	// Two parts, 2 MiB pieces. Both remote owners share one link, so 4 MiB
	// crosses it per operation (the stream probe prices codec and socket
	// together); the owner copies its 2 MiB, the coordinator assembles all
	// four pieces (8 MiB) on reads.
	shapeLargeWire: {
		famRead:  {{"msg.hop_ns", 2}, {"darray.owner_blocks_ns", 1}, {"net.rtt_small_us", 1}, {"net.stream_mb_s", 2 * 8 * largePiece}, {"darray.copy_large_ns_per_kb", 5 * largeKiB}},
		famWrite: {{"msg.hop_ns", 2}, {"darray.owner_blocks_ns", 1}, {"net.rtt_small_us", 1}, {"net.stream_mb_s", 2 * 8 * largePiece}, {"darray.copy_large_ns_per_kb", largeKiB}},
		// Gather and redistribution are side operations on the 8 KiB
		// arrays: the small-wire paths.
		famGather: {{"msg.hop_ns", 2}, {"darray.owner_indices_ns", 1}, {"net.rtt_small_us", 1}, {"darray.gather_ns_per_elem", 2 * gatherK}, {"wire.ints_ns_per_elem", gatherK / 2}},
		famRedist: {{"msg.hop_ns", 2}, {"darray.transfer_schedule_small_ns", 1}, {"net.rtt_small_us", 1.5}, {"darray.copy_offsets_ns_per_elem", 2 * smallPiece}},
	},
	// Two parts, one 512x128 panel (512 KiB, wholly on one source owner)
	// per operation; figures are the mean over the four panels, two of
	// which live across the wire.
	shapePanelWire: {
		// Panel 0 is the caller's own (fast path: no hop, one copy), panel
		// 1 an in-process owner (4 hops, 2 copies), panels 2 and 3 pay the
		// wire (2 hops, a round trip, 512 KiB streamed, 2 copies).
		famRead: {{"msg.hop_ns", 2}, {"darray.owner_blocks_ns", 0.75}, {"net.rtt_small_us", 0.5}, {"net.stream_mb_s", 0.5 * 8 * panelElems}, {"darray.copy_large_ns_per_kb", 1.75 * panelKiB}},
		// Cyclic rows over whole columns split into one strided share per
		// owner (bounds and a step, no offset lists): the coordinator packs
		// the four shares (512 KiB), two of them cross the link, and each
		// owner copies its 128 KiB in.
		famWrite: {{"msg.hop_ns", 2}, {"net.rtt_small_us", 1}, {"net.stream_mb_s", 2 * 8 * panelPerDst}, {"darray.copy_large_ns_per_kb", 1.25 * panelKiB}},
		// A side operation on the 8 KiB array: the small-wire path.
		famGather: {{"msg.hop_ns", 2}, {"darray.owner_indices_ns", 1}, {"net.rtt_small_us", 1}, {"darray.gather_ns_per_elem", 2 * gatherK}, {"wire.ints_ns_per_elem", gatherK / 2}},
		// The schedule is offset sets for all 65536 points; the source
		// owner packs all four shares, two of them cross the link with
		// their destination offsets, and for the two remote panels the
		// order itself carries both offset lists across first.
		famRedist: {{"msg.hop_ns", 2}, {"darray.transfer_schedule_panel_us", 1}, {"net.rtt_small_us", 1.5}, {"net.stream_mb_s", 2 * 8 * panelPerDst}, {"wire.ints_ns_per_elem", 2*panelPerDst + panelElems}, {"darray.copy_offsets_ns_per_elem", panelElems + panelPerDst}},
	},
}

// attribute computes, for each array-operation family, the blocking-path
// sum from the probe results and the remainder against the measured p50
// (microseconds).
func attribute(shape shapeClass, probes map[string]metric, p50us map[family]float64, out map[string]metric) error {
	for _, f := range opFamilies {
		sum := 0.0
		for _, t := range blockingPaths[shape][f] {
			m, ok := probes[t.probe]
			if !ok {
				return fmt.Errorf("attribution needs probe %s", t.probe)
			}
			switch {
			case m.Unit == "MB/s":
				sum += t.mult / m.Value // bytes / (MB/s) = microseconds
			default:
				scale, ok := usPerUnit[m.Unit]
				if !ok {
					return fmt.Errorf("attribution cannot convert %s of %s", m.Unit, t.probe)
				}
				sum += t.mult * m.Value * scale
			}
		}
		rest := p50us[f] - sum
		name := familyNames[f]
		out["arraymgr.unattributed_"+name+"_us"] = metric{Value: rest, Unit: "us"}
		out["arraymgr.unattributed_"+name+"_share"] = metric{Value: rest / p50us[f], Unit: "ratio"}
	}
	return nil
}

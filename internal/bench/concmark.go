package bench

import (
	"fmt"
	"strings"

	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/object"
	"mst/internal/trace"
)

// The concurrent-marking ablation (msbench -ablation concmark): a
// heap-only workload — a seeded deterministic object graph churned
// through scavenges and explicit full collections — run once with the
// stop-the-world mark-compact collector and once with the SATB
// concurrent marker, over a growing rooted live set. The interesting
// column is the maximum full-GC pause: the serial collector's pause
// grows with the live set, while the concurrent marker's longest
// stop-the-world window (snapshot or finalize) stays bounded.
// Everything is virtual-time deterministic, so the rows participate in
// the regression gate and the determinism fingerprint.

const (
	concMarkRounds = 6 // alloc/scavenge rounds; every second one full-collects
	concMarkFulls  = 3 // full collections per run (rounds/2)
)

// concMarkKeepSizes are the rooted live-window sizes measured; the
// serial full-GC pause scales with them, the concurrent windows do not.
var concMarkKeepSizes = []int{1000, 2000, 4000}

// ConcMarkRow is one live-set size's measurements. Ticks and pauses are
// virtual; the pause snapshots drop their bucket vectors (the summary
// columns suffice and the gate pins them exactly).
type ConcMarkRow struct {
	Keep           int    `json:"keep"`
	FullCollects   uint64 `json:"full_collections"`
	SerialTicks    int64  `json:"serial_full_gc_ticks"`
	ConcTicks      int64  `json:"conc_full_gc_ticks"`
	SerialMaxPause int64  `json:"serial_max_pause_ticks"`
	ConcMaxPause   int64  `json:"conc_max_pause_ticks"`
	Cycles         uint64 `json:"conc_mark_cycles"`
	Slices         uint64 `json:"conc_mark_slices"`
	Marked         uint64 `json:"conc_mark_marked_objects"`
	Shaded         uint64 `json:"conc_mark_barrier_shades"`
	ReclaimedWords uint64 `json:"conc_reclaimed_old_words"`
	// Per-window STW pause distributions (virtual ticks): every serial
	// full-GC pause vs every concurrent-marking stop-the-world window.
	SerialPause trace.HistSnapshot `json:"serial_pause"`
	ConcPause   trace.HistSnapshot `json:"conc_pause"`
	ConcSlice   trace.HistSnapshot `json:"conc_slice"`
}

// ConcMarkReport is the full ablation.
type ConcMarkReport struct {
	Rows []ConcMarkRow `json:"rows"`
}

// concMarkMutator builds and churns the seeded graph on processor 0: a
// sliding window of rooted objects with LCG-derived (fully
// deterministic) edges into the recent past. Each round allocates a
// batch, overwrites old edges (the SATB deletion-barrier workload when
// a mark cycle is active on the collector processor), and scavenges.
// *round counts completed rounds for the collector's pacing. The
// sequence never reads an address or a clock, so the serial and
// concurrent collectors replay identical mutations.
func concMarkMutator(h *heap.Heap, p *firefly.Proc, keep int, round *int) {
	var roots []object.OOP
	h.AddRootFunc(func(visit func(*object.OOP)) {
		for i := range roots {
			visit(&roots[i])
		}
	})
	x := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(n))
	}
	for r := 0; r < concMarkRounds; r++ {
		for i := 0; i < keep; i++ {
			fields := 2 + next(5)
			o := h.Allocate(p, object.Nil, fields, object.FmtPointers)
			if len(roots) > 0 {
				h.Store(p, o, 1, roots[next(len(roots))])
				// Overwrite an existing edge: under an active mark
				// cycle this exercises the deletion barrier.
				h.Store(p, roots[next(len(roots))], 0, o)
			}
			roots = append(roots, o)
			if len(roots) > keep {
				k := next(len(roots))
				roots = append(roots[:k], roots[k+1:]...)
			}
			// Safepoint: without it the raw-heap workload would run to
			// completion in one quantum and the collector processor
			// could never interleave with the mutation.
			p.CheckYield()
		}
		h.Scavenge(p)
		*round = r + 1
	}
}

// concMarkCollector triggers the full collections from processor 1
// while the mutator keeps running on processor 0. Under the serial
// collector the mutator stalls for the whole mark-compact; under
// ConcMark it runs between mark slices, so its edge overwrites land on
// the deletion barrier and its allocations are born black. Pacing is
// by completed mutator rounds (read at safepoints — deterministic
// under the cooperative scheduler), so every collection lands mid-
// round with a tenured population proportional to the live window.
func concMarkCollector(h *heap.Heap, p *firefly.Proc, round *int) {
	for _, target := range [concMarkFulls]int{1, 2, 4} {
		for *round < target {
			p.AdvanceIdle(200)
			p.Yield()
		}
		h.FullCollect(p)
	}
}

// runConcMarkOnce runs the workload on a fresh machine and returns the
// heap statistics plus the pause distributions.
func runConcMarkOnce(keep int, concMark bool) (heap.Stats, *trace.LatencyMetrics, error) {
	m := firefly.New(4, firefly.DefaultCosts())
	lh := trace.NewLatencyHists()
	m.Observe(&firefly.Observers{Lat: lh})
	cfg := heap.Config{
		OldWords:      1 << 20,
		EdenWords:     32 << 10,
		SurvivorWords: 16 << 10,
		TenureAge:     2,
		Policy:        heap.AllocSerialized,
		LocksEnabled:  true,
		ConcMark:      concMark,
	}
	h := heap.New(m, cfg)
	defer h.Release()
	round := 0
	m.Start(0, func(p *firefly.Proc) { concMarkMutator(h, p, keep, &round) })
	m.Start(1, func(p *firefly.Proc) { concMarkCollector(h, p, &round) })
	if r := m.Run(nil); r != firefly.StopAllDone {
		return heap.Stats{}, nil, fmt.Errorf(
			"bench: concmark (keep=%d conc=%v): machine stopped with %v",
			keep, concMark, r)
	}
	h.CheckInvariants()
	lm := lh.Snapshot()
	return h.Stats(), lm, nil
}

// RunConcMarkAblation measures the ablation. The mutation sequence is
// identical across the two collectors (it never reads an address or a
// clock); the GC interleaving is not, so the rows cross-check only the
// schedule-independent facts — both runs performed every requested
// full collection, and the concurrent marker's longest stop-the-world
// window undercuts the serial pause. The gate then pins every column
// exactly.
func RunConcMarkAblation() (*ConcMarkReport, error) {
	r := &ConcMarkReport{}
	for _, keep := range concMarkKeepSizes {
		serial, slat, err := runConcMarkOnce(keep, false)
		if err != nil {
			return nil, err
		}
		conc, clat, err := runConcMarkOnce(keep, true)
		if err != nil {
			return nil, err
		}
		if serial.FullCollections != conc.FullCollections {
			return nil, fmt.Errorf(
				"bench: concmark keep=%d: full-collection counts diverge (serial %d, concurrent %d)",
				keep, serial.FullCollections, conc.FullCollections)
		}
		if conc.FullGCMaxPause >= serial.FullGCMaxPause {
			return nil, fmt.Errorf(
				"bench: concmark keep=%d: concurrent max pause %d ticks is not below the serial max pause %d ticks",
				keep, conc.FullGCMaxPause, serial.FullGCMaxPause)
		}
		row := ConcMarkRow{
			Keep:           keep,
			FullCollects:   conc.FullCollections,
			SerialTicks:    int64(serial.FullGCTime),
			ConcTicks:      int64(conc.FullGCTime),
			SerialMaxPause: int64(serial.FullGCMaxPause),
			ConcMaxPause:   int64(conc.FullGCMaxPause),
			Cycles:         conc.ConcMarkCycles,
			Slices:         conc.ConcMarkSlices,
			Marked:         conc.ConcMarkMarked,
			Shaded:         conc.ConcMarkShaded,
			ReclaimedWords: conc.ReclaimedOldWords,
			SerialPause:    slat.FullGCPause,
			ConcPause:      clat.ConcMarkPause,
			ConcSlice:      clat.ConcMarkSlice,
		}
		// The summary columns suffice for the ablation rows.
		row.SerialPause.Buckets = nil
		row.ConcPause.Buckets = nil
		row.ConcSlice.Buckets = nil
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// FormatConcMark renders the ablation for terminal output.
func FormatConcMark(r *ConcMarkReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concurrent marking ablation: %d rounds, %d full collections per run\n\n",
		concMarkRounds, concMarkFulls)
	fmt.Fprintf(&b, "%6s %6s %14s %14s %12s %12s %7s %7s %8s %8s %10s\n",
		"keep", "fulls", "serial ticks", "conc ticks",
		"serial maxP", "conc maxP", "cycles", "slices", "marked", "shades", "reclaimed")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %6d %14d %14d %12d %12d %7d %7d %8d %8d %10d\n",
			row.Keep, row.FullCollects, row.SerialTicks, row.ConcTicks,
			row.SerialMaxPause, row.ConcMaxPause,
			row.Cycles, row.Slices, row.Marked, row.Shaded, row.ReclaimedWords)
	}
	b.WriteString("\nStop-the-world pause ticks (p50/p90/p99/max)\n")
	fmt.Fprintf(&b, "%6s %27s %27s %27s\n", "keep", "serial full GC", "conc STW windows", "conc mark slices")
	for _, row := range r.Rows {
		s, c, sl := row.SerialPause, row.ConcPause, row.ConcSlice
		fmt.Fprintf(&b, "%6d %27s %27s %27s\n", row.Keep,
			fmt.Sprintf("%d/%d/%d/%d", s.P50, s.P90, s.P99, s.Max),
			fmt.Sprintf("%d/%d/%d/%d", c.P50, c.P90, c.P99, c.Max),
			fmt.Sprintf("%d/%d/%d/%d", sl.P50, sl.P90, sl.P99, sl.Max))
	}
	return b.String()
}

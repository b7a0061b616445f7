package main

import (
	"mst/internal/core"
	"mst/internal/trace"
)

// tally sums the simulator's counters over the systems a round uses,
// each as the difference between two System.Metrics snapshots taken
// around the timed work. Pause maxima are taken over each system's
// whole life, boot included.
type tally struct {
	virtualTicks               int64 // summed per-system virtual elapsed time
	switches                   uint64
	busy, spin, stall, idle    int64
	clock                      int64
	lockAcq, lockCont          map[string]uint64
	heap                       trace.HeapMetrics
	interp                     trace.InterpMetrics
	scavMaxPause, fullMaxPause int64
}

func newTally() *tally {
	return &tally{lockAcq: map[string]uint64{}, lockCont: map[string]uint64{}}
}

// add folds in one system's counters between snapshots a and b.
func (t *tally) add(a, b trace.Metrics) {
	t.virtualTicks += b.Machine.VirtualTimeTicks - a.Machine.VirtualTimeTicks
	t.switches += b.Machine.Switches - a.Machine.Switches
	for i := range b.Procs {
		pa, pb := a.Procs[i], b.Procs[i]
		t.busy += pb.BusyTicks - pa.BusyTicks
		t.spin += pb.SpinTicks - pa.SpinTicks
		t.stall += pb.StallTicks - pa.StallTicks
		t.idle += pb.IdleTicks - pa.IdleTicks
		t.clock += pb.ClockTicks - pa.ClockTicks
	}
	before := map[string]trace.LockMetrics{}
	for _, l := range a.Locks {
		before[l.Name] = l
	}
	for _, l := range b.Locks {
		t.lockAcq[l.Name] += l.Acquisitions - before[l.Name].Acquisitions
		t.lockCont[l.Name] += l.Contentions - before[l.Name].Contentions
	}
	ha, hb, h := a.Heap, b.Heap, &t.heap
	h.AllocatedWords += hb.AllocatedWords - ha.AllocatedWords
	h.StoreChecks += hb.StoreChecks - ha.StoreChecks
	if hb.RememberedPeak > h.RememberedPeak {
		h.RememberedPeak = hb.RememberedPeak
	}
	h.Scavenges += hb.Scavenges - ha.Scavenges
	h.CopiedWords += hb.CopiedWords - ha.CopiedWords
	h.TenuredWords += hb.TenuredWords - ha.TenuredWords
	h.FullCollections += hb.FullCollections - ha.FullCollections
	h.ScavengeSteals += hb.ScavengeSteals - ha.ScavengeSteals
	h.ScavengeTicks += hb.ScavengeTicks - ha.ScavengeTicks
	t.scavMaxPause = max(t.scavMaxPause, hb.ScavengeMaxPause)
	t.fullMaxPause = max(t.fullMaxPause, hb.FullGCMaxPause)
	ia, ib, in := a.Interp, b.Interp, &t.interp
	in.Bytecodes += ib.Bytecodes - ia.Bytecodes
	in.Sends += ib.Sends - ia.Sends
	in.CacheHits += ib.CacheHits - ia.CacheHits
	in.CacheMisses += ib.CacheMisses - ia.CacheMisses
	in.ICHits += ib.ICHits - ia.ICHits
	in.ICMisses += ib.ICMisses - ia.ICMisses
	in.DictProbes += ib.DictProbes - ia.DictProbes
	in.ContextsAlloc += ib.ContextsAlloc - ia.ContextsAlloc
	in.ContextsRecycled += ib.ContextsRecycled - ia.ContextsRecycled
	in.ProcessSwitches += ib.ProcessSwitches - ia.ProcessSwitches
	in.JITCompiles += ib.JITCompiles - ia.JITCompiles
	in.JITDeopts += ib.JITDeopts - ia.JITDeopts
	in.JITBytecodes += ib.JITBytecodes - ia.JITBytecodes
}

// gcMaxPauseTicks is the longest stop-the-world pause, scavenge or
// full collection.
func (t *tally) gcMaxPauseTicks() int64 { return max(t.scavMaxPause, t.fullMaxPause) }

// watch snapshots a system now and returns a function that folds the
// counters since then into t.
func (t *tally) watch(sys *core.System) func() {
	a := sys.Metrics()
	return func() { t.add(a, sys.Metrics()) }
}

func pctOf(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// layerCounts renders the counts and virtual shares of the per-layer
// metric set.
func (t *tally) layerCounts(m map[string]float64) {
	m["firefly.switches"] = float64(t.switches)
	m["firefly.idle_pct"] = pctOf(float64(t.idle), float64(t.clock))
	m["firefly.spin_pct"] = pctOf(float64(t.spin), float64(t.clock))
	m["firefly.stall_pct"] = pctOf(float64(t.stall), float64(t.clock))
	for _, l := range []string{"alloc", "entry-table", "scheduler"} {
		m["lock."+l+".contention_pct"] = pctOf(float64(t.lockCont[l]), float64(t.lockAcq[l]))
	}
	in := t.interp
	m["interp.bytecodes"] = float64(in.Bytecodes)
	m["interp.sends"] = float64(in.Sends)
	m["interp.cache_hit_pct"] = pctOf(float64(in.CacheHits), float64(in.CacheHits+in.CacheMisses))
	m["interp.ic_hit_pct"] = pctOf(float64(in.ICHits), float64(in.ICHits+in.ICMisses))
	m["interp.dict_probes"] = float64(in.DictProbes)
	m["interp.context_recycle_pct"] = pctOf(float64(in.ContextsRecycled), float64(in.ContextsAlloc+in.ContextsRecycled))
	m["interp.process_switches"] = float64(in.ProcessSwitches)
	m["jit.compiles"] = float64(in.JITCompiles)
	m["jit.deopts"] = float64(in.JITDeopts)
	m["jit.bytecode_share_pct"] = pctOf(float64(in.JITBytecodes), float64(in.Bytecodes))
	h := t.heap
	m["heap.allocated_words"] = float64(h.AllocatedWords)
	m["heap.store_checks"] = float64(h.StoreChecks)
	m["heap.remembered_peak"] = float64(h.RememberedPeak)
	m["heap.scavenges"] = float64(h.Scavenges)
	m["heap.copied_words"] = float64(h.CopiedWords)
	m["heap.tenured_words"] = float64(h.TenuredWords)
	m["heap.full_collections"] = float64(h.FullCollections)
	m["heap.scavenge_steals"] = float64(h.ScavengeSteals)
	m["heap.scavenge_pct"] = pctOf(float64(h.ScavengeTicks), float64(t.virtualTicks))
	m["heap.scavenge_max_pause_ms"] = float64(t.scavMaxPause) / 1000
	m["heap.full_gc_max_pause_ms"] = float64(t.fullMaxPause) / 1000
}

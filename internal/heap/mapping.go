package heap

import (
	"runtime"
	"sync/atomic"
)

// mapping owns a heap's word array. mapWords is the one funnel that
// obtains it: where the platform allows, the words are an anonymous
// mapping whose pages the OS zero-fills and commits only on first
// touch, so a booted image costs resident memory for the words it
// actually uses rather than for its whole old space (mapping_mmap.go);
// elsewhere they are an ordinary Go slice (mapping_make.go).
//
// Only the Heap points at its mapping, and the mapping points at
// nothing in the Go heap, so it becomes unreachable exactly when its
// Heap does — even though the Heap itself sits in reference cycles
// (the machine, the concurrent-mark assist closure). The finalizer is
// therefore set here, not on the Heap: it is the safety net that
// returns the words of heaps nobody releases (test heaps, for one),
// while Heap.Release returns them promptly.
type mapping struct{ w []uint64 }

// liveWords counts the words of every mapping not yet released.
var liveWords atomic.Int64

func newMapping(n int) *mapping {
	mp := &mapping{w: mapWords(n)}
	liveWords.Add(int64(n))
	runtime.SetFinalizer(mp, (*mapping).release)
	return mp
}

// release returns the words. It runs at most once: from Heap.Release,
// which clears the finalizer, or as the finalizer itself.
func (mp *mapping) release() {
	if mp.w == nil {
		return
	}
	runtime.SetFinalizer(mp, nil)
	liveWords.Add(-int64(len(mp.w)))
	unmapWords(mp.w)
	mp.w = nil
}

package heap

import (
	"strings"
	"testing"

	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/sanitize"
)

// Fault-injection tests for the write-barrier verifier against the
// parallel scavenger's heap shape: survivors live in per-worker copy
// buffers with filler-capped gaps between them, so the verifier walks
// the survivor space and admits only real object starts. A bare range
// check (the verifier's original form, which assumed the serial
// scavenger's single contiguous copy cursor) would bless a pointer
// into a gap or into the middle of an object; these tests prove the
// walked form catches both, plus a remembered-set omission.

// parSanHeap runs fn on processor 0 of a four-processor machine with
// the parallel scavenger enabled and a sanitizer attached.
func parSanHeap(t *testing.T, fn func(h *Heap, p *firefly.Proc)) *sanitize.Checker {
	t.Helper()
	cfg := fuzzConfig()
	cfg.ParScavenge = true
	m := firefly.New(4, firefly.DefaultCosts())
	san := sanitize.New()
	m.Observe(&firefly.Observers{San: san})
	h := New(m, cfg)
	m.Start(0, func(p *firefly.Proc) { fn(h, p) })
	if r := m.Run(nil); r != firefly.StopAllDone {
		t.Fatalf("machine stopped with %v", r)
	}
	return san
}

// seedSurvivors builds enough rooted young objects that a parallel
// scavenge spreads copies across every worker's buffer, then scavenges
// once. Returns the roots (now survivor-space objects).
func seedSurvivors(h *Heap, p *firefly.Proc, roots *[]object.OOP) {
	h.AddRootFunc(func(visit func(*object.OOP)) {
		for i := range *roots {
			visit(&(*roots)[i])
		}
	})
	for i := 0; i < 100; i++ {
		o := h.Allocate(p, object.Nil, 4, object.FmtPointers)
		h.StoreNoCheck(o, 0, object.FromInt(int64(i)))
		*roots = append(*roots, o)
	}
	h.Scavenge(p)
}

// findFillerGap locates a retired copy-buffer filler in the live
// survivor space.
func findFillerGap(h *Heap) (uint64, bool) {
	live := h.surv[h.past]
	for a := live.base; a < live.next; {
		if h.isScavFiller(a) {
			return a, true
		}
		a += uint64(object.Header(h.mem[a]).SizeWords())
	}
	return 0, false
}

func barrierViolations(san *sanitize.Checker, substr string) int {
	n := 0
	for _, v := range san.Violations() {
		if v.Kind == sanitize.KindWriteBarrier && strings.Contains(v.Detail, substr) {
			n++
		}
	}
	return n
}

// An old object pointing into a copy-buffer gap (where a bare range
// check would see "valid new space") must be flagged as a dangling
// reference.
func TestVerifierCatchesPointerIntoCopyBufferGap(t *testing.T) {
	san := parSanHeap(t, func(h *Heap, p *firefly.Proc) {
		var roots []object.OOP
		seedSurvivors(h, p, &roots)
		gap, ok := findFillerGap(h)
		if !ok {
			t.Fatal("no copy-buffer filler in survivor space; workload too small")
		}
		old := h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		// FAULT: a pointer into the filler gap, planted behind the
		// barrier's back (test-only reach into the representation).
		h.mem[old.Addr()+object.HeaderWords] = uint64(object.FromAddr(gap))
		h.verifyWriteBarrier(p)
	})
	if barrierViolations(san, "reclaimed new space") == 0 {
		t.Fatalf("pointer into a copy-buffer gap not detected:\n%s", san.Report())
	}
}

// A corrupted forwarding pointer shows up as an old object referencing
// the middle of a survivor object — a new-space address that is not an
// object start. The verifier must reject it.
func TestVerifierCatchesCorruptedForwardingPointer(t *testing.T) {
	san := parSanHeap(t, func(h *Heap, p *firefly.Proc) {
		var roots []object.OOP
		seedSurvivors(h, p, &roots)
		old := h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		h.Store(p, old, 0, roots[0])
		// FAULT: as if a racing worker had published a forwarding
		// pointer off by a word — the referent is now mid-object.
		h.mem[old.Addr()+object.HeaderWords] = uint64(object.FromAddr(roots[0].Addr() + 2))
		h.verifyWriteBarrier(p)
	})
	if barrierViolations(san, "reclaimed new space") == 0 {
		t.Fatalf("corrupted forwarding pointer not detected:\n%s", san.Report())
	}
}

// An old object that references new space but is missing from the
// entry table (a remembered-set omission — e.g. a worker losing a kept
// entry while the sets are merged) must be flagged.
func TestVerifierCatchesRememberedSetOmission(t *testing.T) {
	san := parSanHeap(t, func(h *Heap, p *firefly.Proc) {
		var roots []object.OOP
		seedSurvivors(h, p, &roots)
		old := h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		h.Store(p, old, 0, roots[0])
		h.Scavenge(p)
		// FAULT: drop the entry from the table, keeping the header bit
		// and the old→new reference.
		kept := h.remembered[:0]
		for _, o := range h.remembered {
			if o != old {
				kept = append(kept, o)
			}
		}
		if len(kept) == len(h.remembered) {
			t.Fatal("old object never entered the entry table; bad setup")
		}
		h.remembered = kept
		h.verifyWriteBarrier(p)
	})
	if barrierViolations(san, "is not in the entry table") == 0 {
		t.Fatalf("remembered-set omission not detected:\n%s", san.Report())
	}
	if barrierViolations(san, "disagrees") == 0 {
		t.Fatalf("header-bit/table disagreement not reported:\n%s", san.Report())
	}
}

// The same workload with no fault injected is verifier-clean: the
// walked survivor space (fillers and all) produces no false positives.
func TestVerifierCleanOnParallelScavengeHeap(t *testing.T) {
	san := parSanHeap(t, func(h *Heap, p *firefly.Proc) {
		var roots []object.OOP
		seedSurvivors(h, p, &roots)
		old := h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		h.Store(p, old, 0, roots[0])
		h.Scavenge(p)
		h.CheckInvariants()
	})
	if vs := san.Violations(); len(vs) != 0 {
		t.Fatalf("clean parallel-scavenge workload reported violations:\n%s", san.Report())
	}
}

package firefly

import (
	"mst/internal/sanitize"
	"mst/internal/trace"
)

// Observers bundles every optional observer of one machine: the flight
// recorder, the Table-3 invariant checker (mscheck), the latency
// histograms, the selector profiler and the allocation-site profiler.
// Attach it once with Machine.Observe, before the layers built on the
// machine are constructed (they register their guarded structures
// then). The two profilers start after boot, so image construction is
// not attributed: the interpreter fills in Prof, AllocProf and AllocSite
// on the attached bundle. Observers only watch; none of them ever
// charges virtual time, so an observed run is bit-identical to an
// unobserved one.
//
// Each observable event is one method call. Every method is safe on a
// nil bundle and its nil test inlines at the call site, so with no
// bundle attached an event costs one pointer test; the out-of-line
// body fans the event out to whichever observers are present. A site
// whose arguments cost something to build (a selector's name) guards
// on Recorder() instead, so the arguments are never built untraced.
type Observers struct {
	Rec  *trace.Recorder
	San  *sanitize.Checker
	Lat  *trace.LatencyHists
	Prof *trace.Profiler
	// AllocProf attributes each allocation to the site AllocSite
	// resolves for the allocating processor.
	AllocProf *trace.AllocProfiler
	AllocSite func(proc int) int
}

// Observe attaches the observer bundle o; nil detaches every observer.
// Locks registered before the call are backfilled: each is registered
// with the sanitizer and each enabled one gets its acquire-wait
// histogram, so attach order relative to lock creation does not
// matter.
func (m *Machine) Observe(o *Observers) {
	m.obs = o
	for _, l := range m.locks {
		o.registerLock(l)
	}
}

// Observers returns the attached observer bundle, or nil.
func (m *Machine) Observers() *Observers { return m.obs }

// Recorder returns the attached flight recorder, or nil.
func (m *Machine) Recorder() *trace.Recorder { return m.obs.Recorder() }

// registerLock introduces l to the bundle: the sanitizer learns the
// lock and, when l is enabled, the latency histograms give it a wait
// histogram. A nil bundle leaves l with none.
func (o *Observers) registerLock(l *Spinlock) {
	l.waitHist = nil
	if o == nil {
		return
	}
	if o.San != nil {
		o.San.RegisterLock(l.name, l.enabled)
	}
	if o.Lat != nil && l.enabled {
		l.waitHist = o.Lat.LockHist(l.name)
	}
}

// Recorder returns the flight recorder, or nil.
func (o *Observers) Recorder() *trace.Recorder {
	if o == nil {
		return nil
	}
	return o.Rec
}

// Sanitizer returns the invariant checker, or nil.
func (o *Observers) Sanitizer() *sanitize.Checker {
	if o == nil {
		return nil
	}
	return o.San
}

// Latency returns the latency-histogram registry, or nil.
func (o *Observers) Latency() *trace.LatencyHists {
	if o == nil {
		return nil
	}
	return o.Lat
}

// Profiler returns the selector profiler, or nil.
func (o *Observers) Profiler() *trace.Profiler {
	if o == nil {
		return nil
	}
	return o.Prof
}

// AllocProfiler returns the allocation-site profiler, or nil.
func (o *Observers) AllocProfiler() *trace.AllocProfiler {
	if o == nil {
		return nil
	}
	return o.AllocProf
}

// Trace records one flight-recorder event.
func (o *Observers) Trace(k trace.Kind, proc int, at, arg1, arg2 int64, str string) {
	if o != nil && o.Rec != nil {
		o.Rec.Emit(k, proc, at, arg1, arg2, str)
	}
}

// Event records one flight-recorder event on p at p's clock.
func (o *Observers) Event(p *Proc, k trace.Kind, arg1, arg2 int64, str string) {
	if o != nil && o.Rec != nil {
		o.Rec.Emit(k, p.id, int64(p.clock), arg1, arg2, str)
	}
}

// RegisterGuard declares structure as guarded by lock to the sanitizer.
func (o *Observers) RegisterGuard(structure, lock string) {
	if o != nil && o.San != nil {
		o.San.RegisterGuard(structure, lock)
	}
}

// Access reports p touching a serialized (lock-guarded) structure; call
// it from inside the guarding critical section.
func (o *Observers) Access(p *Proc, structure string) {
	if o != nil && o.San != nil {
		o.San.OnAccess(p.id, int64(p.clock), structure)
	}
}

// OwnedAccess reports p touching its own replica of a replicated
// (per-processor) structure.
func (o *Observers) OwnedAccess(p *Proc, structure string) {
	if o != nil && o.San != nil {
		o.San.OnOwnedAccess(p.id, p.id, int64(p.clock), structure)
	}
}

// QueueOp reports one serialized device-queue operation on p: the
// sanitizer checks the access and the recorder logs event k with the
// queue length n.
func (o *Observers) QueueOp(p *Proc, k trace.Kind, structure string, n int) {
	if o != nil {
		o.queueOp(p, k, structure, n)
	}
}

func (o *Observers) queueOp(p *Proc, k trace.Kind, structure string, n int) {
	o.Access(p, structure)
	o.Event(p, k, int64(n), 0, "")
}

// lockAcquire reports p taking l after spinning spin ticks (0 when
// uncontended); excl is 1 for an exclusive hold, 0 for a read hold.
func (o *Observers) lockAcquire(p *Proc, l *Spinlock, spin Time, excl int64) {
	if o != nil {
		o.lockAcquireSlow(p, l, spin, excl)
	}
}

func (o *Observers) lockAcquireSlow(p *Proc, l *Spinlock, spin Time, excl int64) {
	if h := l.waitHist; h != nil {
		h.Record(int64(spin))
	}
	o.Event(p, trace.KLockAcquire, 0, excl, l.name)
	if o.San != nil {
		o.San.OnAcquire(p.id, int64(p.clock), l.name)
	}
}

// lockRelease reports p dropping l; excl as for lockAcquire.
func (o *Observers) lockRelease(p *Proc, l *Spinlock, excl int64) {
	if o != nil {
		o.lockReleaseSlow(p, l, excl)
	}
}

func (o *Observers) lockReleaseSlow(p *Proc, l *Spinlock, excl int64) {
	o.Event(p, trace.KLockRelease, 0, excl, l.name)
	if o.San != nil {
		o.San.OnRelease(p.id, int64(p.clock), l.name)
	}
}

// GCKind names the collector a pause belongs to, for GCPause.
type GCKind int

const (
	// GCScavenge is a new-space scavenge.
	GCScavenge GCKind = iota
	// GCFull is a stop-the-world mark-compact of old space.
	GCFull
	// GCConcMark is one stop-the-world window (snapshot or finalize) of
	// a concurrent mark cycle.
	GCConcMark
)

// GCPause reports a stop-the-world collection pause that just ended on
// p: the pause histograms of its kind record it and the recorder logs a
// gc-pause sample (Arg2 0 for a scavenge, 1 for old-space work).
func (o *Observers) GCPause(p *Proc, kind GCKind, pause Time) {
	if o != nil {
		o.gcPause(p, kind, pause)
	}
}

func (o *Observers) gcPause(p *Proc, kind GCKind, pause Time) {
	if lh := o.Lat; lh != nil {
		if kind == GCScavenge {
			lh.ScavengePause.Record(int64(pause))
		} else {
			// A full collection's pause includes its nested
			// eden-emptying scavenge, which also recorded itself in
			// ScavengePause: the distributions overlap by design, like
			// FullGCTime and ScavengeTime.
			lh.FullGCPause.Record(int64(pause))
		}
		if kind == GCConcMark {
			lh.ConcMarkPause.Record(int64(pause))
		}
	}
	full := int64(0)
	if kind != GCScavenge {
		full = 1
	}
	o.Event(p, trace.KGCPause, int64(pause), full, "")
}

// Alloc reports an allocation of words by proc to the allocation-site
// profiler and answers the site it was attributed to, or -1 when the
// profiler is off.
func (o *Observers) Alloc(proc int, words int) int {
	if o == nil {
		return -1
	}
	return o.alloc(proc, words)
}

func (o *Observers) alloc(proc int, words int) int {
	ap := o.AllocProf
	if ap == nil {
		return -1
	}
	id := o.AllocSite(proc)
	ap.RecordAlloc(id, int64(words))
	return id
}

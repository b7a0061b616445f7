package firefly

import (
	"fmt"
	"sync/atomic"

	"mst/internal/trace"
)

// Spinlock is a virtual spinlock in the style of the V system locks used
// by MS: an interlocked test-and-set, and on failure a minimal-timeout
// Delay before retrying.
//
// The simulation exploits a structural property of MS's locks: every
// critical section is *brief and host-atomic* — it performs no operation
// that could hand control to another virtual processor (the paper's
// criterion for choosing serialization: "access is brief and relatively
// infrequent"). The lock therefore never needs to block at the host
// level; it is a virtual-time reservation. Acquire at clock t on a lock
// last free at time f charges test-and-set time, and when t < f — the
// lock was held during [t, f) by a processor that is ahead in virtual
// time — the acquirer spins in Delay-retry quanta until f. Contention,
// spin time, and serialization delays are thus fully modelled in virtual
// time while the host execution stays simple and deterministic, and
// acquiring a lock is never a garbage-collection point.
//
// The held flag exists only to enforce the host-atomicity invariant: a
// critical section that yields (or scavenges, which stalls the other
// processors but leaves the holder marked) would be a simulator bug and
// panics.
//
// A disabled lock (baseline-BS mode, with multiprocessor support
// compiled out) costs nothing and keeps no state.
// In parallel host mode the virtual-time reservation no longer works
// (there is no global ordering of clocks to reserve against), so the
// lock becomes what it models: an interlocked test-and-set word
// (state; 0 free, holder id + 1 otherwise) acquired with CAS and
// host-level exponential backoff. The same cost model still charges
// the test-and-set and each spin retry to the acquirer's own virtual
// clock, so contention remains visible in the virtual statistics.
type Spinlock struct {
	name    string
	enabled bool
	m       *Machine
	held    bool
	holder  int
	freeAt  Time // virtual time of the most recent release

	// state is the parallel-mode lock word: 0 free, holder id + 1.
	state atomic.Int32

	acquisitions atomic.Uint64
	contentions  atomic.Uint64
	spinTime     atomic.Int64 // ticks

	// waitHist, when the latency histograms are attached, receives
	// every acquire's virtual wait (spin ticks; 0 when uncontended).
	waitHist *trace.Histogram
}

// NewSpinlock registers a named spinlock with the machine (for
// statistics) and returns it. When enabled is false the lock is a free
// no-op, modelling the baseline system.
func (m *Machine) NewSpinlock(name string, enabled bool) *Spinlock {
	l := &Spinlock{name: name, enabled: enabled, m: m}
	m.locks = append(m.locks, l)
	m.obs.registerLock(l)
	return l
}

// spinUntil charges the deterministic contended spin of an acquire that
// finds the lock held until horizon: whole test-and-set + Delay rounds
// until the holder's release, recorded as one contention. It returns
// the spin ticks.
func (l *Spinlock) spinUntil(p *Proc, horizon Time) Time {
	l.contentions.Add(1)
	retry := p.m.costs.LockSpinRetry
	spin := (horizon - p.clock + retry - 1) / retry * retry
	p.m.obs.Event(p, trace.KLockContend, int64(spin), 0, l.name)
	p.AdvanceSpin(spin)
	l.spinTime.Add(int64(spin))
	return spin
}

// Acquire takes the lock at the processor's current virtual time,
// spinning (in virtual time only) while the lock was held.
func (l *Spinlock) Acquire(p *Proc) {
	if !l.enabled {
		return
	}
	if l.m.parallel {
		l.acquirePar(p)
		return
	}
	c := p.m.costs
	p.Advance(c.LockTAS)
	if l.held {
		panic(fmt.Sprintf("firefly: processor %d acquired lock %q while processor %d is inside the critical section (a critical section must not yield)",
			p.id, l.name, l.holder))
	}
	var spin Time
	if p.clock < l.freeAt {
		// The lock is held during [p.clock, freeAt) by a processor
		// ahead in virtual time.
		spin = l.spinUntil(p, l.freeAt)
	}
	l.held = true
	l.holder = p.id
	l.acquisitions.Add(1)
	p.m.obs.lockAcquire(p, l, spin, 1)
}

// acquirePar is the parallel-host-mode Acquire: a real CAS loop with
// exponential host backoff. Virtual time is charged exactly as the
// model prescribes — one test-and-set, then one LockSpinRetry round
// per failed retry.
func (l *Spinlock) acquirePar(p *Proc) {
	c := p.m.costs
	p.Advance(c.LockTAS)
	me := int32(p.id) + 1
	if l.state.CompareAndSwap(0, me) {
		l.acquisitions.Add(1)
		p.m.obs.lockAcquire(p, l, 0, 1)
		return
	}
	l.contentions.Add(1)
	var spin Time
	backoff := 1
	for {
		backoff = parBackoff(backoff)
		p.AdvanceSpin(c.LockSpinRetry)
		spin += c.LockSpinRetry
		if l.state.Load() == 0 && l.state.CompareAndSwap(0, me) {
			break
		}
	}
	l.spinTime.Add(int64(spin))
	l.acquisitions.Add(1)
	p.m.obs.Event(p, trace.KLockContend, int64(spin), 0, l.name)
	p.m.obs.lockAcquire(p, l, spin, 1)
}

// TryAcquire takes the lock if it is free at the processor's current
// virtual time, charging only test-and-set time. It reports whether the
// lock was acquired.
func (l *Spinlock) TryAcquire(p *Proc) bool {
	if !l.enabled {
		return true
	}
	if l.m.parallel {
		p.Advance(p.m.costs.LockTAS)
		if l.state.CompareAndSwap(0, int32(p.id)+1) {
			l.acquisitions.Add(1)
			p.m.obs.lockAcquire(p, l, 0, 1)
			return true
		}
		l.contentions.Add(1)
		p.m.obs.Event(p, trace.KLockContend, 0, 0, l.name)
		return false
	}
	p.Advance(p.m.costs.LockTAS)
	if l.held {
		panic(fmt.Sprintf("firefly: processor %d probed lock %q inside processor %d's critical section",
			p.id, l.name, l.holder))
	}
	if p.clock < l.freeAt {
		l.contentions.Add(1)
		p.m.obs.Event(p, trace.KLockContend, 0, 0, l.name)
		return false
	}
	l.held = true
	l.holder = p.id
	l.acquisitions.Add(1)
	p.m.obs.lockAcquire(p, l, 0, 1)
	return true
}

// Release frees the lock; the critical section's virtual duration is the
// holder's clock advance between Acquire and Release.
func (l *Spinlock) Release(p *Proc) {
	if !l.enabled {
		return
	}
	if l.m.parallel {
		if l.state.Load() != int32(p.id)+1 {
			panic(fmt.Sprintf("firefly: processor %d releasing lock %q it does not hold", p.id, l.name))
		}
		p.Advance(p.m.costs.LockRelease)
		l.state.Store(0)
		p.m.obs.lockRelease(p, l, 1)
		return
	}
	if !l.held || l.holder != p.id {
		panic(fmt.Sprintf("firefly: processor %d releasing lock %q it does not hold", p.id, l.name))
	}
	l.held = false
	p.Advance(p.m.costs.LockRelease)
	l.freeAt = p.clock
	p.m.obs.lockRelease(p, l, 1)
}

// Held reports whether the lock is currently held (always false when
// disabled, and false between host operations by construction in the
// deterministic mode).
func (l *Spinlock) Held() bool {
	if l.m != nil && l.m.parallel {
		return l.state.Load() != 0
	}
	return l.held
}

// Name returns the lock's registration name.
func (l *Spinlock) Name() string { return l.name }

// RWSpinlock is a virtual two-level (readers-writer) lock, the scheme
// MS first used for its shared method cache ("a two-level locking
// scheme to allow multiple readers"). Readers overlap freely; a writer
// waits for every outstanding read and excludes everything until it
// releases. Like Spinlock it is a virtual-time reservation: critical
// sections are host-atomic and only the timing is modelled.
// In parallel host mode the lock is a real reader-count word (rw: -1
// writer, otherwise the number of readers inside), CAS-acquired with
// host backoff like Spinlock.
type RWSpinlock struct {
	inner *Spinlock // carries name/enabled/stats; its freeAt is the write horizon
	// readsEnd is the virtual time the last overlapping read finishes.
	readsEnd Time

	rw atomic.Int32
}

// NewRWSpinlock registers a named readers-writer lock.
func (m *Machine) NewRWSpinlock(name string, enabled bool) *RWSpinlock {
	return &RWSpinlock{inner: m.NewSpinlock(name, enabled)}
}

// AcquireRead enters a read-side critical section at the processor's
// virtual time: it waits only for a pending writer, never for other
// readers.
func (l *RWSpinlock) AcquireRead(p *Proc) {
	in := l.inner
	if !in.enabled {
		return
	}
	c := p.m.costs
	if in.m.parallel {
		p.Advance(c.LockTAS)
		in.acquisitions.Add(1)
		contended := false
		var spin Time
		backoff := 1
		for {
			if v := l.rw.Load(); v >= 0 && l.rw.CompareAndSwap(v, v+1) {
				break
			}
			if !contended {
				contended = true
				in.contentions.Add(1)
			}
			backoff = parBackoff(backoff)
			p.AdvanceSpin(c.LockSpinRetry)
			spin += c.LockSpinRetry
		}
		if contended {
			in.spinTime.Add(int64(spin))
			p.m.obs.Event(p, trace.KLockContend, int64(spin), 0, in.name)
		}
		p.m.obs.lockAcquire(p, in, spin, 0)
		return
	}
	p.Advance(c.LockTAS)
	in.acquisitions.Add(1)
	var spin Time
	if p.clock < in.freeAt { // a writer holds the lock until freeAt
		spin = in.spinUntil(p, in.freeAt)
	}
	p.m.obs.lockAcquire(p, in, spin, 0)
}

// ReleaseRead leaves the read-side section, extending the read horizon
// a writer must wait for.
func (l *RWSpinlock) ReleaseRead(p *Proc) {
	if !l.inner.enabled {
		return
	}
	p.Advance(p.m.costs.LockRelease)
	if l.inner.m.parallel {
		if l.rw.Add(-1) < 0 {
			panic(fmt.Sprintf("firefly: processor %d read-releasing lock %q it does not read-hold", p.id, l.inner.name))
		}
	} else if p.clock > l.readsEnd {
		l.readsEnd = p.clock
	}
	p.m.obs.lockRelease(p, l.inner, 0)
}

// AcquireWrite enters the exclusive section: it waits for the previous
// writer and for every outstanding reader.
func (l *RWSpinlock) AcquireWrite(p *Proc) {
	in := l.inner
	if !in.enabled {
		return
	}
	c := p.m.costs
	if in.m.parallel {
		p.Advance(c.LockTAS)
		in.acquisitions.Add(1)
		contended := false
		var spin Time
		backoff := 1
		for !l.rw.CompareAndSwap(0, -1) {
			if !contended {
				contended = true
				in.contentions.Add(1)
			}
			backoff = parBackoff(backoff)
			p.AdvanceSpin(c.LockSpinRetry)
			spin += c.LockSpinRetry
		}
		if contended {
			in.spinTime.Add(int64(spin))
			p.m.obs.Event(p, trace.KLockContend, int64(spin), 0, in.name)
		}
		p.m.obs.lockAcquire(p, in, spin, 1)
		return
	}
	p.Advance(c.LockTAS)
	in.acquisitions.Add(1)
	horizon := max(in.freeAt, l.readsEnd)
	var spin Time
	if p.clock < horizon {
		spin = in.spinUntil(p, horizon)
	}
	p.m.obs.lockAcquire(p, in, spin, 1)
}

// ReleaseWrite leaves the exclusive section.
func (l *RWSpinlock) ReleaseWrite(p *Proc) {
	if !l.inner.enabled {
		return
	}
	p.Advance(p.m.costs.LockRelease)
	if l.inner.m.parallel {
		if !l.rw.CompareAndSwap(-1, 0) {
			panic(fmt.Sprintf("firefly: processor %d write-releasing lock %q it does not write-hold", p.id, l.inner.name))
		}
	} else {
		l.inner.freeAt = p.clock
	}
	p.m.obs.lockRelease(p, l.inner, 1)
}

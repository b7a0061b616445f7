package interp

import (
	"mst/internal/bytecode"
	"mst/internal/firefly"
	"mst/internal/jit"
	"mst/internal/object"
	"mst/internal/trace"
)

// The msjit execution tier: hot methods are template-compiled (see
// internal/jit) into pc-indexed arrays of pre-bound Go closures —
// operands, literal oops, and inline-cache sites resolved once, at
// compile time — and the quantum loop runs `fns[pc]()` with no
// fetch/decode switch. Each closure performs exactly what one step()
// iteration performs and charges exactly what it charges, so virtual
// times, counters, goldens, and fingerprints are bit-identical between
// tiers; the payoff is host nanoseconds only.
//
// The tier state is strictly per-interpreter (the paper's replication
// discipline): each processor owns its plan table, hotness counters,
// and compiled bodies, so parallel host mode compiles without locks.
// The plan table keys by raw method oops and is discarded before every
// scavenge (vm.go OnPreScavenge), like the method cache. The compiled
// bodies capture no raw oops at all — operands are indices resolved
// through the interpreter registers, send sites are host pointers the
// scavenger updates in place — so they survive scavenges (keyed by the
// equally durable icMethod instances) and die only at the
// method-install safepoint that resets the inline caches
// (flushAllCaches) or on a snapshot.
//
// Deopt is trivial by construction: every closure stores the next pc
// into in.pc before doing anything else, so abandoning compiled code is
// just `in.jfns = nil` — the interpreter resumes at the next bytecode
// boundary with no state reconstruction. Reasons: megamorphic IC
// retirement (icFill), decompiler/debugger attach (PrimDecompile),
// snapshot (primSnapshot), uncommon bytecodes (thisContext, compiled as
// a trap), and doesNotUnderstand: (sendDNU).

// jitFrameTag marks profiler frames whose busy ticks accrued while the
// method ran as compiled closures (selector-profiler tier attribution).
const jitFrameTag = trace.JITTag

// jitFn is one compiled bytecode instance, pre-bound to its interpreter.
type jitFn func()

// jitCode is one method's compiled form in one interpreter's cache.
type jitCode struct {
	fns  []jitFn      // indexed by pc; nil at operand bytes
	cost firefly.Time // per-bytecode dispatch charge (jit.Program.DispatchCost)
	n    int          // instruction count (observability)
}

// jitTabSize is the per-processor method-plan table size (entries,
// power of two, direct-mapped). Collisions evict: the loser re-warms
// through jitEnter if it runs again.
const jitTabSize = 4096

func jitTabIndex(method object.OOP) int {
	return int((uint64(method) >> 3) & (jitTabSize - 1))
}

// jitEntry is one method's tier state: the hotness counter, the
// compiled form once hot, and the activation plan — everything
// loadContext re-derives on every context switch (literal-frame
// fetches, the code and inline-cache map probes, the header decode),
// captured once per method. Plans hold raw oops and are only ever
// consulted while the caches are live: the whole table is discarded
// before every scavenge and at the method-install safepoint.
type jitEntry struct {
	method object.OOP // Invalid = empty slot
	count  uint32     // loads seen, toward jit.CompileThreshold
	bad    bool       // ineligible (undecodable, megamorphic, trapped)
	large  bool       // needs a large context
	ntemps int        // temp count from the method header
	bytes  object.OOP
	lits   object.OOP
	code   []byte
	icm    *icMethod
	jc     *jitCode // compiled form; nil until hot
}

// jitEnter, called from loadContext's slow path after the generic
// derivation, claims (or re-claims) the method's plan slot so every
// later load and activation of the method takes the fast path. The
// previous occupant of a colliding slot loses its plan and hotness.
// A body compiled before the last scavenge is resurrected from
// jitKeep: a scavenge invalidates the plans (raw oops), never the
// compiled code.
func (in *Interp) jitEnter() {
	in.jfns = nil
	if in.method == object.Nil {
		return
	}
	hdr := in.vm.H.Fetch(in.method, CMHeader)
	ntemps := headerNumTemps(hdr)
	e := &in.jitTab[jitTabIndex(in.method)]
	*e = jitEntry{
		method: in.method,
		count:  1,
		large:  ntemps+headerMaxStack(hdr)+2 > SmallCtxSlots,
		ntemps: ntemps,
		bytes:  in.bytes,
		lits:   in.lits,
		code:   in.code,
		icm:    in.icm,
	}
	if in.icm != nil {
		if jc, ok := in.jitKeep[in.icm]; ok {
			e.jc = jc
			in.jfns = jc.fns
			in.jcost = jc.cost
		}
	}
}

// jitLoadFast is loadContext's plan-table hit path: install the cached
// derivation and either enter compiled code or advance the hotness
// counter. Reports false (and leaves the registers for the generic
// path) when the method has no resident plan.
func (in *Interp) jitLoadFast() bool {
	e := &in.jitTab[jitTabIndex(in.method)]
	if e.method != in.method {
		in.jfns = nil
		return false
	}
	in.bytes = e.bytes
	in.lits = e.lits
	in.code = e.code
	in.icm = e.icm
	if jc := e.jc; jc != nil {
		in.jfns = jc.fns
		in.jcost = jc.cost
		return true
	}
	in.jfns = nil
	if !e.bad {
		e.count++
		if e.count >= jit.CompileThreshold {
			in.jitCompile(e)
		}
	}
	return true
}

// jitCompile template-compiles the current method into its plan entry.
// Compilation is host work only: it charges no virtual time and
// touches no simulated state, so det and parallel runs stay
// bit-identical with the tier on.
func (in *Interp) jitCompile(e *jitEntry) {
	// Only monomorphic/polymorphic-stable methods: a method that has
	// already retired a send site as megamorphic stays interpreted.
	if e.icm != nil {
		for i := range e.icm.sites {
			if e.icm.sites[i].mega {
				e.bad = true
				return
			}
		}
	}
	// A body compiled before a forget (or a plan eviction) is
	// resurrected rather than rebuilt: the inline-cache state it binds
	// to is unchanged, and resurrection is not a compile (no event, no
	// counter — the tier state just came back).
	if e.icm != nil {
		if jc, ok := in.jitKeep[e.icm]; ok {
			e.jc = jc
			in.jfns = jc.fns
			in.jcost = jc.cost
			return
		}
	}
	prog, err := jit.Compile(e.code)
	if err != nil {
		e.bad = true
		return
	}
	prog.Specialize(in.costs)
	jc := in.jitBuild(prog)
	e.jc = jc
	if e.icm != nil {
		in.jitKeep[e.icm] = jc
	}
	in.jfns = jc.fns
	in.jcost = jc.cost
	in.stats.JITCompiles++
	if r := in.vm.obs().Recorder(); r != nil {
		h := in.vm.H
		name := ""
		if sel := h.Fetch(e.method, CMSelector); sel != object.Nil && sel.IsPtr() &&
			h.Header(sel).Format() == object.FmtBytes {
			name = string(h.Bytes(sel))
		}
		r.Emit(trace.KJITCompile, in.p.ID(), int64(in.p.Now()), int64(jc.n), 0, name)
	}
}

// jitActivate is the tier's fast method activation: when the callee has
// a resident plan and a recyclable context on this processor's free
// list, the header decode, the handle dance (a free-list pop cannot
// scavenge), and loadContext's re-derivation all disappear. The heap
// stores, virtual charges, stats, and trace emissions are exactly the
// generic path's. Reports false to fall back (no plan, shared free
// lists, or an empty free list — heap allocation may GC and needs the
// handles).
func (in *Interp) jitActivate(method object.OOP, nargs int) bool {
	e := &in.jitTab[jitTabIndex(method)]
	if e.method != method {
		return false
	}
	vm := in.vm
	if vm.Cfg.FreeContexts == FreeCtxSharedLocked {
		return false
	}
	list := &in.freeSmall
	slots := SmallCtxSlots
	if e.large {
		list = &in.freeLarge
		slots = LargeCtxSlots
	}
	n := len(*list)
	if n == 0 {
		return false
	}
	nc := (*list)[n-1]
	*list = (*list)[:n-1]
	in.p.Advance(in.costs.FreeListPop)

	h := vm.H
	ntemps := e.ntemps
	// The recycle watermark (recycleContext): slots at or above it are
	// already nil in a frame that died cleanly, so the activation
	// nil-fill shrinks from the whole slot area to the part the dead
	// frame actually dirtied.
	wm := int(h.Fetch(nc, CtxSP).Int())
	if wm > slots {
		wm = slots
	}
	h.StoreNoCheck(nc, CtxPC, object.FromInt(0))
	h.StoreNoCheck(nc, CtxSP, object.FromInt(int64(ntemps)))
	h.Store(in.p, nc, CtxMethod, method)
	receiver := in.stackAt(nargs)
	h.Store(in.p, nc, CtxReceiver, receiver)
	for i := 0; i < nargs; i++ {
		h.Store(in.p, nc, CtxFixed+i, in.stackAt(nargs-1-i))
	}
	for i := nargs; i < wm; i++ {
		h.StoreNoCheck(nc, CtxFixed+i, object.Nil)
	}
	in.popN(nargs + 1)
	in.flushRegisters()
	h.Store(in.p, nc, CtxSender, in.ctx)

	// loadContext, with every derivation replaced by the plan (a fresh
	// method context: pc 0, sp at the temps, slot capacity by size
	// class).
	in.ctx = nc
	in.isBlock = false
	in.home = nc
	in.base = CtxFixed
	in.method = method
	in.receiver = receiver
	in.bytes = e.bytes
	in.lits = e.lits
	in.code = e.code
	in.icm = e.icm
	in.pc = 0
	in.sp = ntemps
	in.slotCap = slots
	if jc := e.jc; jc != nil {
		in.jfns = jc.fns
		in.jcost = jc.cost
	} else {
		in.jfns = nil
		if !e.bad {
			e.count++
			if e.count >= jit.CompileThreshold {
				in.jitCompile(e)
			}
		}
	}
	if pf := vm.obs().Profiler(); pf != nil {
		in.profSync(pf)
	}
	return true
}

// jitDeopt abandons the compiled code the interpreter is currently
// running. Every closure maintains in.pc at bytecode-boundary
// precision, so the fallback needs no frame reconstruction.
func (in *Interp) jitDeopt(reason jit.DeoptReason) {
	if in.jfns == nil {
		return
	}
	in.jfns = nil
	in.stats.JITDeopts++
	in.vm.obs().Event(in.p, trace.KJITDeopt, int64(reason), 0, reason.String())
}

// jitBlacklist pins a resident method to the interpreter. A method
// whose plan was evicted loses the mark, which is harmless: the next
// compile attempt re-discovers the ineligibility (megamorphic sites
// persist in the inline caches; traps re-fire).
func (in *Interp) jitBlacklist(method object.OOP) {
	if in.jitTab == nil {
		return
	}
	in.jitDiscard(method)
	if e := &in.jitTab[jitTabIndex(method)]; e.method == method {
		e.bad = true
		e.jc = nil
		e.count = 0
	}
}

// jitDiscard drops a method's persistent compiled body, preventing
// resurrection after the next scavenge.
func (in *Interp) jitDiscard(method object.OOP) {
	if in.ic != nil {
		if icm, ok := in.ic[method]; ok {
			delete(in.jitKeep, icm)
		}
	}
}

// jitForget demotes one method to the interpreter (decompiler/debugger
// attach): its plan loses the compiled code and the hotness restarts,
// so the tool sees pure interpreter activations while attached. The
// compiled body itself is retained in jitKeep — decompiling does not
// change the method (replacement goes through the install safepoint,
// which drops everything), so when the method runs hot again after the
// tool detaches, jitCompile resurrects the body instead of recompiling.
// Only the owning interpreter is touched — the tier state is
// per-processor, so this stays race-free in parallel mode.
func (in *Interp) jitForget(method object.OOP) {
	if !in.jitOn {
		return
	}
	if e := &in.jitTab[jitTabIndex(method)]; e.method == method {
		e.jc = nil
		e.count = 0
		e.bad = false
	}
	if in.method == method {
		in.jitDeopt(jit.DeoptDecompile)
	}
}

// jitFlush discards this interpreter's plan table, called before every
// scavenge: plans hold raw oops. The compiled bodies in jitKeep hold
// none (operands are indices, sites are host pointers the scavenger
// updates in place) and survive — methods re-enter through jitEnter at
// their next load and resurrect compiled. Cache invalidation is not a
// deopt: no event, no counter.
func (in *Interp) jitFlush() {
	if !in.jitOn {
		return
	}
	in.jfns = nil
	clear(in.jitTab)
}

// jitInvalidate discards the whole tier — plans and compiled bodies —
// at the method-install safepoint (flushAllCaches): the inline-cache
// state the bodies bind to is reset there, so everything recompiles.
func (in *Interp) jitInvalidate() {
	if !in.jitOn {
		return
	}
	in.jfns = nil
	clear(in.jitTab)
	clear(in.jitKeep)
}

// jitDeoptAll deopts and fully invalidates every interpreter's tier
// (snapshot: every context must park in a pure interpreter state).
func (vm *VM) jitDeoptAll(reason jit.DeoptReason) {
	for _, in := range vm.Interps {
		if !in.jitOn {
			continue
		}
		in.jitDeopt(reason)
		clear(in.jitTab)
		clear(in.jitKeep)
	}
}

// jitSite resolves a send site's inline cache once, at compile time,
// replacing the per-send binary search of the interpreter path.
func (in *Interp) jitSite(pc int) *icSite {
	if in.icPolicy == ICOff || in.icm == nil {
		return nil
	}
	if si := in.icm.siteIndex(pc); si >= 0 {
		return &in.icm.sites[si]
	}
	return nil
}

// jitBuild turns a template Program into pre-bound closures. Each
// closure body replicates the matching step() case exactly — same
// helpers, same order, same charges — with the fetch/decode work
// already done. Bodies capture only scavenge-stable state: operand
// integers, send-site pointers, and the interpreter itself; anything
// that moves (literals, selectors, globals) is re-read through the
// registers at run time, which is what lets compiled code outlive
// scavenges.
func (in *Interp) jitBuild(prog *jit.Program) *jitCode {
	vm := in.vm
	h := vm.H
	fns := make([]jitFn, prog.CodeLen)
	for i := range prog.Instrs {
		ins := &prog.Instrs[i]
		next := ins.Next
		var fn jitFn
		switch ins.Op {
		case bytecode.OpPushSelf:
			fn = func() { in.pc = next; in.push(in.receiver) }
		case bytecode.OpPushNil:
			fn = func() { in.pc = next; in.push(object.Nil) }
		case bytecode.OpPushTrue:
			fn = func() { in.pc = next; in.push(object.True) }
		case bytecode.OpPushFalse:
			fn = func() { in.pc = next; in.push(object.False) }
		case bytecode.OpPushTemp:
			// Temps always live in the home context, and home == ctx
			// for method contexts, so no isBlock branch survives.
			idx := CtxFixed + ins.A
			fn = func() { in.pc = next; in.push(h.Fetch(in.home, idx)) }
		case bytecode.OpPushInstVar:
			idx := ins.A
			fn = func() { in.pc = next; in.push(h.Fetch(in.receiver, idx)) }
		case bytecode.OpPushLiteral:
			idx := ins.A
			fn = func() { in.pc = next; in.push(in.literalAt(idx)) }
		case bytecode.OpPushGlobal:
			idx := ins.A
			fn = func() { in.pc = next; in.push(h.Fetch(in.literalAt(idx), AsValue)) }
		case bytecode.OpPushInt8:
			v := object.FromInt(int64(ins.A))
			fn = func() { in.pc = next; in.push(v) }
		case bytecode.OpPushThisContext:
			// Uncommon trap: perform the push exactly as the
			// interpreter would, then bail out and pin the method —
			// a reified context couples it to interpreter state.
			fn = func() {
				in.pc = next
				in.flushRegisters()
				in.push(in.ctx)
				in.jitBlacklist(in.method)
				in.jitDeopt(jit.DeoptUncommon)
			}
		case bytecode.OpDup:
			fn = func() { in.pc = next; in.push(in.stackAt(0)) }
		case bytecode.OpPop:
			fn = func() { in.pc = next; in.pop() }

		case bytecode.OpStoreTemp:
			idx := CtxFixed + ins.A
			fn = func() { in.pc = next; h.Store(in.p, in.home, idx, in.stackAt(0)) }
		case bytecode.OpStoreInstVar:
			idx := ins.A
			fn = func() { in.pc = next; h.Store(in.p, in.receiver, idx, in.stackAt(0)) }
		case bytecode.OpStoreGlobal:
			idx := ins.A
			fn = func() { in.pc = next; h.Store(in.p, in.literalAt(idx), AsValue, in.stackAt(0)) }
		case bytecode.OpPopTemp:
			idx := CtxFixed + ins.A
			fn = func() { in.pc = next; h.Store(in.p, in.home, idx, in.pop()) }
		case bytecode.OpPopInstVar:
			idx := ins.A
			fn = func() { in.pc = next; h.Store(in.p, in.receiver, idx, in.pop()) }
		case bytecode.OpPopGlobal:
			idx := ins.A
			fn = func() { in.pc = next; h.Store(in.p, in.literalAt(idx), AsValue, in.pop()) }

		case bytecode.OpJump:
			target := ins.Target
			fn = func() { in.pc = target }
		case bytecode.OpJumpFalse, bytecode.OpJumpTrue:
			target := ins.Target
			want := object.True
			if ins.Op == bytecode.OpJumpFalse {
				want = object.False
			}
			fn = func() {
				in.pc = next
				v := in.pop()
				if v == want {
					in.pc = target
				} else if v != object.True && v != object.False {
					in.mustBeBoolean(v)
				}
			}
		case bytecode.OpPushBlock:
			endPC := ins.Target
			initOop := object.FromInt(int64(next)) // body starts after the operands
			infoOop := object.FromInt(int64(ins.A) | int64(ins.B)<<8)
			fn = func() {
				in.pc = endPC
				blk := h.Allocate(in.p, vm.Specials.BlockContext,
					BCtxFixed+BlockCtxSlots, object.FmtPointers)
				h.StoreNoCheck(blk, BCtxCaller, object.Nil)
				h.StoreNoCheck(blk, BCtxPC, initOop)
				h.StoreNoCheck(blk, BCtxSP, object.FromInt(0))
				h.Store(in.p, blk, BCtxHome, in.home)
				h.StoreNoCheck(blk, BCtxInfo, infoOop)
				h.StoreNoCheck(blk, BCtxInitialPC, initOop)
				in.push(blk)
			}
		case bytecode.OpReturnTop:
			fn = func() { in.pc = next; in.returnValue(in.pop(), true) }
		case bytecode.OpReturnSelf:
			fn = func() { in.pc = next; in.returnValue(in.receiver, true) }
		case bytecode.OpBlockReturn:
			fn = func() { in.pc = next; in.blockReturn() }

		case bytecode.OpSend, bytecode.OpSendSuper:
			// The selector is re-fetched from the literal frame per
			// send (interpreter parity) rather than captured: symbols
			// move at scavenges, and the body must outlive them.
			idx := ins.A
			nargs := ins.B
			super := ins.Op == bytecode.OpSendSuper
			site := in.jitSite(ins.PC)
			fn = func() { in.pc = next; in.sendWithSite(in.literalAt(idx), nargs, super, site) }

		default:
			// jit.Compile admits only known opcodes, so the rest are
			// the special-selector sends: selector read from the
			// (root-updated) interned table, site pre-resolved, fast
			// path shared with the interpreter.
			op := ins.Op
			selIdx := op - bytecode.FirstSpecialSend
			nargs := bytecode.Special(op).NumArgs
			site := in.jitSite(ins.PC)
			fn = func() {
				in.pc = next
				if in.specialFast(op) {
					return
				}
				in.sendWithSite(vm.specialSelectors[selIdx], nargs, false, site)
			}
		}
		fns[ins.PC] = fn
	}
	// Superinstruction pass: wherever a profitable straight-line group
	// starts, a fused closure replaces the head singleton (and keeps it
	// as its fallback). Interior pcs keep their singletons, so jumps
	// into the middle of a group and fallback resumption stay exact.
	for i := range prog.Instrs {
		if f := jit.Fuse(prog, i); f != nil {
			pc := prog.Instrs[i].PC
			fns[pc] = in.jitFuseFn(f, fns[pc], fns, pc)
		}
	}
	return &jitCode{fns: fns, cost: prog.DispatchCost, n: len(prog.Instrs)}
}

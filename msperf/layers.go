package main

import (
	"sort"
	"strings"
)

// The layer map: every non-test source file of the module belongs to
// exactly one bucket, named after its module (and, where a module has
// parts worth telling apart, the part). layers_test.go checks that the
// map covers internal/ without overlaps.
var layerMap = []struct{ prefix, bucket string }{
	{"internal/firefly/", "firefly"},

	{"internal/interp/interp.go", "interp.dispatch"},
	{"internal/interp/vm.go", "interp.dispatch"},
	{"internal/bytecode/", "interp.dispatch"},
	{"internal/interp/send.go", "interp.send"},
	{"internal/interp/inlinecache.go", "interp.send"},
	{"internal/interp/prims", "interp.prims"}, // prims.go, prims2.go
	{"internal/display/", "interp.prims"},
	{"internal/interp/sched.go", "interp.sched"},
	{"internal/interp/genesis.go", "interp.other"},
	{"internal/interp/install.go", "interp.other"},
	{"internal/interp/profile.go", "interp.other"},
	{"internal/interp/snapshot.go", "interp.other"},

	{"internal/interp/jit", "jit"}, // jit.go, jitfuse.go
	{"internal/jit/", "jit"},

	{"internal/heap/alloc.go", "heap.alloc"},
	{"internal/heap/heap.go", "heap.store"},
	{"internal/heap/scavenge.go", "heap.scavenge"},
	{"internal/heap/parscavenge.go", "heap.scavenge"},
	{"internal/heap/worklist.go", "heap.scavenge"},
	{"internal/heap/fullgc.go", "heap.fullgc"},
	{"internal/heap/concmark.go", "heap.fullgc"},
	{"internal/heap/handles.go", "heap.other"},
	{"internal/heap/snapshot.go", "heap.other"},
	{"internal/heap/verify.go", "heap.other"},
	{"internal/object/", "heap.other"},

	{"internal/compiler/", "compiler"},
	{"internal/core/", "core"},
	{"internal/image/", "image"},
	{"internal/serve/", "serve"}, // serve and loadgen
	{"internal/trace/", "trace"},
	{"internal/bench/", "bench"},
	{"msperf/", "bench"},
	{"internal/sanitize/", "tools"},
	{"internal/msvet/", "tools"},
}

// Buckets for samples outside the module's files.
const (
	bucketSched        = "runtime.sched"
	bucketGoGC         = "go.gc"
	bucketUnattributed = "unattributed"
)

// moduleRel returns a file's path inside the module. Built with
// -trimpath from the benchmark's own module, the program's files read
// "mst@v0.0.0/internal/..." and the benchmark's "mst/msperf/...".
func moduleRel(file string) (string, bool) {
	mod, rel, ok := strings.Cut(file, "/")
	if !ok || (mod != "mst" && !strings.HasPrefix(mod, "mst@")) {
		return "", false
	}
	return rel, true
}

// bucketOfFile maps a module-relative path to its bucket ("" if none).
func bucketOfFile(rel string) string {
	for _, l := range layerMap {
		if strings.HasPrefix(rel, l.prefix) {
			return l.bucket
		}
	}
	return ""
}

// goGCFunc reports whether fn is part of Go's garbage collector.
func goGCFunc(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.scanstack", "runtime.sweepone",
		"runtime.greyobject", "runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// schedFuncs are the Go scheduler, channel and futex paths a goroutine
// handoff goes through.
var schedFuncs = map[string]bool{
	"runtime.chansend": true, "runtime.chansend1": true, "runtime.chanrecv": true,
	"runtime.chanrecv1": true, "runtime.chanrecv2": true, "runtime.selectgo": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.mcall": true, "runtime.futex": true, "runtime.futexsleep": true,
	"runtime.futexwakeup": true, "runtime.notesleep": true, "runtime.notewakeup": true,
	"runtime.lock2": true, "runtime.unlock2": true, "runtime.wakep": true,
	"runtime.startm": true, "runtime.stopm": true, "runtime.mPark": true,
	"runtime.semacquire1": true, "runtime.semrelease1": true, "runtime.casgstatus": true,
	"runtime.execute": true, "runtime.gogo": true, "runtime.runqget": true,
	"runtime.runqsteal": true, "runtime.runqgrab": true, "runtime.mstart": true,
	"runtime.mstart1": true, "runtime.mstart0": true, "runtime.usleep": true,
	"runtime.osyield": true, "runtime.goschedImpl": true, "runtime.gosched_m": true,
	"runtime.send": true, "runtime.recv": true, "runtime.resetspinning": true,
	"runtime.checkTimers": true, "runtime.stealWork": true, "runtime.netpoll": true,
}

// classify attributes one CPU sample to a bucket: Go's collector
// first, then the first module file up the stack unless the runtime
// frames below it are a scheduler handoff. Runtime helpers that a
// layer calls (memmove, mallocgc, map access) count as that layer's.
func classify(frames []frame) string {
	for _, f := range frames {
		if goGCFunc(f.fn) {
			return bucketGoGC
		}
	}
	sched := false
	for _, f := range frames {
		if rel, ok := moduleRel(f.file); ok {
			if sched {
				return bucketSched
			}
			if b := bucketOfFile(rel); b != "" {
				return b
			}
			return bucketUnattributed
		}
		if schedFuncs[f.fn] {
			sched = true
		}
	}
	if sched {
		return bucketSched
	}
	return bucketUnattributed
}

// shares sums CPU time per bucket.
type shares struct {
	ns    map[string]int64
	total int64
}

func attribute(samples []cpuSample) shares {
	s := shares{ns: map[string]int64{}}
	for _, cs := range samples {
		s.ns[classify(cs.frames)] += cs.ns
		s.total += cs.ns
	}
	return s
}

// pct is a bucket's share of all samples, in percent; the name may be
// a layer prefix ("interp" sums interp.dispatch, interp.send, ...).
func (s shares) pct(name string) float64 {
	if s.total == 0 {
		return 0
	}
	return 100 * float64(s.layerNS(name)) / float64(s.total)
}

func (s shares) layerNS(name string) int64 {
	var n int64
	for b, v := range s.ns {
		if b == name || strings.HasPrefix(b, name+".") {
			n += v
		}
	}
	return n
}

// buckets lists the buckets with samples, largest first.
func (s shares) buckets() []string {
	out := make([]string, 0, len(s.ns))
	for b := range s.ns {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if s.ns[out[i]] != s.ns[out[j]] {
			return s.ns[out[i]] > s.ns[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

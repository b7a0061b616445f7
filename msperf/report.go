package main

import (
	"fmt"
	"runtime"
	"strings"
)

// metricDef names one per-layer metric; BENCHMARK.json lists the same
// set (layers_test.go checks).
type metricDef struct{ name, unit, better string }

// perLayerDefs is the per-layer metric set a traced run prints, on
// every workload (0 where a layer does no work).
var perLayerDefs = []metricDef{
	// firefly: the virtual machine room and the Go scheduler under it.
	{"firefly.switches", "count", "lower"},
	{"firefly.self_pct", "%", "lower"},
	{"runtime.sched_self_pct", "%", "lower"},
	{"firefly.ns_per_switch", "ns", "lower"},
	{"firefly.idle_pct", "%", "lower"},
	{"firefly.spin_pct", "%", "lower"},
	{"firefly.stall_pct", "%", "lower"},
	{"lock.alloc.contention_pct", "%", "lower"},
	{"lock.entry-table.contention_pct", "%", "lower"},
	{"lock.scheduler.contention_pct", "%", "lower"},
	// interp
	{"interp.bytecodes", "count", "lower"},
	{"interp.sends", "count", "lower"},
	{"interp.cache_hit_pct", "%", "higher"},
	{"interp.ic_hit_pct", "%", "higher"},
	{"interp.dict_probes", "count", "lower"},
	{"interp.context_recycle_pct", "%", "higher"},
	{"interp.process_switches", "count", "lower"},
	{"interp.dispatch_self_pct", "%", "lower"},
	{"interp.send_self_pct", "%", "lower"},
	{"interp.prims_self_pct", "%", "lower"},
	{"interp.sched_self_pct", "%", "lower"},
	{"interp.other_self_pct", "%", "lower"},
	{"interp.ns_per_bytecode", "ns", "lower"},
	// jit
	{"jit.compiles", "count", "lower"},
	{"jit.deopts", "count", "lower"},
	{"jit.bytecode_share_pct", "%", "higher"},
	{"jit.self_pct", "%", "lower"},
	{"jit.ns_per_bytecode", "ns", "lower"},
	// heap
	{"heap.allocated_words", "count", "lower"},
	{"heap.store_checks", "count", "lower"},
	{"heap.remembered_peak", "count", "lower"},
	{"heap.scavenges", "count", "lower"},
	{"heap.copied_words", "count", "lower"},
	{"heap.tenured_words", "count", "lower"},
	{"heap.full_collections", "count", "lower"},
	{"heap.scavenge_steals", "count", "higher"},
	{"heap.scavenge_pct", "%", "lower"},
	{"heap.scavenge_max_pause_ms", "vms", "lower"},
	{"heap.full_gc_max_pause_ms", "vms", "lower"},
	{"heap.alloc_self_pct", "%", "lower"},
	{"heap.store_self_pct", "%", "lower"},
	{"heap.scavenge_self_pct", "%", "lower"},
	{"heap.fullgc_self_pct", "%", "lower"},
	{"heap.other_self_pct", "%", "lower"},
	{"heap.ns_per_copied_word", "ns", "lower"},
	{"heap.concmark_probe_failed", "count", "lower"},
	// compiler, core, image
	{"compiler.compiles", "count", "lower"},
	{"compiler.self_pct", "%", "lower"},
	{"compiler.us_per_compile", "us", "lower"},
	{"core.boot_ms", "ms", "lower"},
	{"core.checkpoint_ms", "ms", "lower"},
	{"core.clone_ms", "ms", "lower"},
	{"core.self_pct", "%", "lower"},
	{"image.self_pct", "%", "lower"},
	// serve
	{"serve.admitted", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.rejected_share", "count", "lower"},
	{"serve.errors", "count", "lower"},
	{"serve.shed_pct", "%", "lower"},
	{"serve.wait_p99_ms", "vms", "lower"},
	{"serve.service_p99_ms", "vms", "lower"},
	{"serve.sustained_rps", "1/s", "higher"},
	{"serve.p99_ms.r125", "vms", "lower"},
	{"serve.p99_ms.r250", "vms", "lower"},
	{"serve.p99_ms.r500", "vms", "lower"},
	{"serve.p99_ms.r1000", "vms", "lower"},
	{"serve.p99_ms.r2000", "vms", "lower"},
	{"serve.self_pct", "%", "lower"},
	{"trace.self_pct", "%", "lower"},
	// table2 by state
	{"table2.baseline_s", "s", "lower"},
	{"table2.ms_s", "s", "lower"},
	{"table2.ms-idle_s", "s", "lower"},
	{"table2.ms-busy_s", "s", "lower"},
	{"table2.busy_overhead_pct", "%", "lower"},
	// the host process and the harness
	{"bench.self_pct", "%", "lower"},
	{"tools.self_pct", "%", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_self_pct", "%", "lower"},
	{"host.wall_s", "s", "lower"},
	{"host.ops_per_s", "1/s", "higher"},
	{"host.calib_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"unattributed_pct", "%", "lower"},
}

// endToEndDefs mirrors BENCHMARK.json's end_to_end list.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"virt_time", "vms", "lower"},
	{"virt_p50", "vms", "lower"},
	{"virt_p99", "vms", "lower"},
	{"virt_ops_per_s", "1/s", "higher"},
	{"virt_gc_max_pause", "vms", "lower"},
}

// perLayer builds the per-layer metrics of a traced run: counts from
// the profiled rounds' Metrics deltas, host shares from the CPU
// profile, set-up costs from the spans.
func perLayer(w workload, plain, prof []roundResult, tr *tracer, calib []float64, ms0, ms1 runtime.MemStats) (map[string]metric, error) {
	var samples []cpuSample
	for _, p := range tr.profiles {
		s, err := parseCPUProfile(p)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
	}
	sh := attribute(samples)
	m := map[string]float64{}
	r0 := prof[0]
	r0.t.layerCounts(m)
	for k, v := range r0.virt.extra {
		m[k] = v
	}
	for _, d := range perLayerDefs {
		if b, ok := strings.CutSuffix(d.name, "_self_pct"); ok {
			m[d.name] = sh.pct(b)
		} else if b, ok := strings.CutSuffix(d.name, ".self_pct"); ok {
			m[d.name] = sh.pct(b)
		}
	}
	m["unattributed_pct"] = sh.pct(bucketUnattributed)

	// Host ns per unit of work: CPU time over the profiled rounds
	// divided by the work they did.
	n := float64(len(prof))
	per := func(ns int64, count float64) float64 {
		if count == 0 {
			return 0
		}
		return float64(ns) / (count * n)
	}
	t := r0.t
	m["firefly.ns_per_switch"] = per(sh.layerNS("firefly")+sh.layerNS(bucketSched), float64(t.switches))
	// The interp layer's files serve compiled code too (sends,
	// primitives, the quantum loop), so it divides by all bytecodes.
	m["interp.ns_per_bytecode"] = per(sh.layerNS("interp"), float64(t.interp.Bytecodes))
	m["jit.ns_per_bytecode"] = per(sh.layerNS("jit"), float64(t.interp.JITBytecodes))
	m["heap.ns_per_copied_word"] = per(sh.layerNS("heap.scavenge"), float64(t.heap.CopiedWords))
	m["compiler.compiles"] = float64(r0.compiles)
	m["compiler.us_per_compile"] = per(sh.layerNS("compiler"), float64(r0.compiles)) / 1000

	m["core.boot_ms"] = median(tr.durations("core.boot")) / 1e6
	m["core.checkpoint_ms"] = median(tr.durations("serve.checkpoint")) / 1e6
	m["core.clone_ms"] = median(tr.durations("core.clone")) / 1e6
	if _, ok := w.(table2); ok {
		for _, st := range []string{"baseline", "ms", "ms-idle", "ms-busy"} {
			var xs []float64
			for _, r := range plain {
				xs = append(xs, r.parts[st].Seconds())
			}
			m["table2."+st+"_s"] = median(xs)
		}
	}
	if c, ok := w.(*churn); ok && c.probed {
		m["heap.concmark_probe_failed"] = 1
	}

	rounds := float64(len(plain) + len(prof))
	m["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / rounds
	m["go.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / rounds
	m["host.wall_s"] = medianWall(plain)
	m["host.ops_per_s"] = opsPerSecond(plain)
	m["host.calib_ms"] = median(calib)
	m["trace.overhead_pct"] = 100 * (medianWall(prof)/medianWall(plain) - 1)

	out := withUnits(perLayerDefs, m)
	for k := range m {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("metric %q is not in the per-layer set", k)
		}
	}
	// The Amdahl ceiling of a bucket is the speed-up removing all of
	// its self time would give.
	fmt.Println("  CPU self share by bucket, with its Amdahl ceiling 1/(1-share):")
	for _, b := range sh.buckets() {
		f := float64(sh.ns[b]) / float64(sh.total)
		fmt.Printf("    %-18s %6.2f%%  %6.3fx\n", b, 100*f, 1/(1-f))
	}
	return out, nil
}

// withUnits pairs each defined metric with its value (0 when the
// workload has none) and unit.
func withUnits(defs []metricDef, m map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, d := range defs {
		out[d.name] = metric{m[d.name], d.unit}
	}
	return out
}

// Command msperf is the repository benchmark: one process runs one
// workload (table2, serve or churn) for a fixed host-time budget,
// checks every answer against a model that does not depend on the
// program, and prints its metrics. With -trace 1 it instead measures
// the per-layer breakdown: Metrics deltas, spans around its own calls
// into the layers, and a CPU profile attributed to layers by source
// file. Run it from the repository root through msperf/run.sh, which
// builds it; see NOTES.md for the metric definitions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mst/internal/core"
)

// roundResult is one timed round of a workload.
type roundResult struct {
	setup    time.Duration            // set-up inside the round (boots), untimed
	wall     time.Duration            // host time of the timed work
	parts    map[string]time.Duration // wall split by part (table2 states)
	ops      int
	failed   int
	compiles int      // doits the round submitted, one compile each
	wrong    []string // oracle failures
	virt     virtOutcome
	t        *tally // layer counters of the round
}

// virtOutcome is a round's virtual result. Every field is a pure
// function of the workload inputs, so every round of a run must agree.
type virtOutcome struct {
	ms       float64 // virtual ms of the round's timed work
	p50, p99 float64 // per-operation virtual latency, ms
	samples  int     // operations the percentiles are over
	opsPerS  float64 // operations per virtual second
	extra    map[string]float64
}

// setLatency fills the percentiles from per-operation virtual ms.
func (v *virtOutcome) setLatency(lat []float64) {
	v.p50, v.p99, v.samples = quantile(lat, 0.5), quantile(lat, 0.99), len(lat)
}

type workload interface {
	// prepare does the run's one-off set-up and untimed probes.
	prepare(tr *tracer) error
	// round runs one timed round.
	round(tr *tracer) (roundResult, error)
}

// minRounds is the fewest rounds a phase runs, whatever the budget.
const minRounds = 3

func main() {
	name := flag.String("workload", "", "table2, serve or churn")
	seed := flag.Uint64("seed", 1, "input seed (table2 has no randomness and ignores it)")
	seconds := flag.Int("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1: per-layer breakdown from a CPU-profiled run")
	flag.Parse()
	// Deterministic mode runs one virtual processor at a time, so one P
	// serves it: handoffs stay goroutine switches instead of futex
	// wake-ups of the other CPU, whose latency on a shared 2-vCPU host
	// moved whole runs by up to 30%.
	runtime.GOMAXPROCS(1)
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "msperf:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "table2":
		return table2{}, nil
	case "serve":
		return newServe(seed), nil
	case "churn":
		return newChurn(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want table2, serve or churn)", name)
}

func run(name string, seed uint64, seconds int, traced bool) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	budget := time.Duration(seconds) * time.Second
	calib := []float64{calibrate(), calibrate(), calibrate()}
	tr := newTracer()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	if err := w.prepare(tr); err != nil {
		return err
	}
	var plain, prof []roundResult
	if !traced {
		plain, err = rounds(w, tr, budget)
	} else {
		// Half the budget untraced, half under the CPU profiler: the
		// difference is the tracing overhead.
		if plain, err = rounds(w, tr, budget/2); err == nil {
			tr.profiling = true
			prof, err = rounds(w, tr, budget/2)
			tr.profiling = false
		}
	}
	if err == nil {
		err = tr.err
	}
	if err != nil {
		return err
	}
	calib = append(calib, calibrate(), calibrate(), calibrate())
	all := append(append([]roundResult(nil), plain...), prof...)

	var res result
	var wrong []string
	for _, r := range all {
		res.Attempted += r.ops
		res.Failed += r.failed
		wrong = append(wrong, r.wrong...)
	}
	// Every round's virtual result must repeat exactly.
	fp0 := fingerprint(all[0])
	for i, r := range all[1:] {
		if fp := fingerprint(r); fp != fp0 {
			wrong = append(wrong, fmt.Sprintf("round %d virtual result differs: %s vs %s", i+2, fp, fp0))
		}
	}
	res.Correct = len(wrong) == 0
	for _, s := range dedupe(wrong) {
		fmt.Fprintln(os.Stderr, "msperf: wrong:", s)
	}

	e2e := endToEnd(w, plain)
	fmt.Printf("msperf %s seed %d: %d rounds (%d profiled), %d operations, %d failed, correct %v\n",
		name, seed, len(all), len(prof), res.Attempted, res.Failed, res.Correct)
	if c, ok := w.(*churn); ok {
		fmt.Printf("  concmark probe (untimed, not counted): %s\n", c.probe)
	}
	var walls []string
	for _, r := range plain {
		walls = append(walls, fmt.Sprintf("%.3f", r.wall.Seconds()))
	}
	fmt.Printf("  round wall s: %s\n  median %.4f s per round, %.1f operations per host second; calibration ms: %.2f\n",
		strings.Join(walls, " "), medianWall(plain), opsPerSecond(plain), calib)
	fmt.Printf("  virtual latency percentiles over %d operations\n", all[0].virt.samples)
	printMetrics(e2e)
	res.Metrics = e2e
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		pl, err := perLayer(w, plain, prof, tr, calib, ms0, ms1)
		if err != nil {
			return err
		}
		printMetrics(pl)
		res.Metrics = pl
		if err := writeTrace(name, seed, tr); err != nil {
			return err
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rounds runs rounds until the next one would overrun the budget.
func rounds(w workload, tr *tracer, budget time.Duration) ([]roundResult, error) {
	var out []roundResult
	t0 := time.Now()
	var longest time.Duration
	for len(out) < minRounds || time.Since(t0)+longest <= budget {
		r0 := time.Now()
		tr.round++
		r, err := w.round(tr)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		longest = max(longest, time.Since(r0))
	}
	return out, nil
}

func fingerprint(r roundResult) string {
	return fmt.Sprintf("%+v %+v", r.virt, *r.t)
}

func dedupe(s []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range s {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// checkOp folds the VM's error log into an operation's outcome: an
// operation fails on its own error (a dead interpreter or machine) or
// on any new vm.Errors entry.
func checkOp(sys *core.System, before int, err error) error {
	if err != nil {
		return err
	}
	if errs := sys.VM.Errors(); len(errs) > before {
		return fmt.Errorf("vm error: %s", errs[before])
	}
	return nil
}

// endToEnd computes the metrics a user sees. Host wall time is not
// among them: on a shared host it drifts by more than any end-to-end
// bound may be (NOTES.md), so it is the per-layer host.wall_s.
func endToEnd(w workload, rs []roundResult) map[string]metric {
	var setups []float64
	for _, r := range rs {
		if r.setup > 0 {
			setups = append(setups, r.setup.Seconds())
		}
	}
	if s, ok := w.(*serveW); ok {
		for _, d := range s.setups {
			setups = append(setups, d.Seconds())
		}
	}
	v := rs[0].virt
	return withUnits(endToEndDefs, map[string]float64{
		"setup_s":           median(setups),
		"peak_rss_mb":       peakRSSMB(),
		"virt_time":         v.ms,
		"virt_p50":          v.p50,
		"virt_p99":          v.p99,
		"virt_ops_per_s":    v.opsPerS,
		"virt_gc_max_pause": float64(rs[0].t.gcMaxPauseTicks()) / 1000,
	})
}

// medianWall is the median host seconds of a round's timed work.
func medianWall(rs []roundResult) float64 {
	var walls []float64
	for _, r := range rs {
		walls = append(walls, r.wall.Seconds())
	}
	return median(walls)
}

// opsPerSecond is the median over rounds of successful operations per
// host second; on serve, requests per second.
func opsPerSecond(rs []roundResult) float64 {
	var rates []float64
	for _, r := range rs {
		rates = append(rates, float64(r.ops-r.failed)/r.wall.Seconds())
	}
	return median(rates)
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile, interpolating at the median.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// calibrate times a fixed pure-Go kernel, in ms: an absolute anchor
// for the host's speed during the run.
func calibrate() float64 {
	t0 := time.Now()
	var a [4096]uint32
	x := uint32(2463534242)
	for i := 0; i < 8_000_000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		a[x&4095] += x
	}
	calibSink = a[x&4095]
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

var calibSink uint32

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				var kb float64
				if _, err := fmt.Sscan(f[1], &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// Without procfs, the Go runtime's view of memory from the OS.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// splitmix is the seed stream the inputs are drawn from.
type splitmix struct{ x uint64 }

func (r *splitmix) next() uint64 {
	r.x += 0x9E3779B97F4A7C15
	z := r.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// writeTrace writes a traced run's spans and CPU profiles (one per
// timed part; go tool pprof merges them) into
// .bench_build/msperf/<workload>-seed<N> in the working directory.
func writeTrace(name string, seed uint64, tr *tracer) error {
	dir := filepath.Join(".bench_build", "msperf", fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, p := range tr.profiles {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%03d.pprof", i)), p, 0o644); err != nil {
			return err
		}
	}
	var b bytes.Buffer
	if err := tr.write(&b); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), b.Bytes(), 0o644)
}

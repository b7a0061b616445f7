package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The benchmark-regression gate (msbench -gate): compare a fresh run
// against a checked-in baseline report (BENCH_prN.json). The simulator
// is deterministic, so the gate diffs the two fingerprints — the
// reports with every host-time field zeroed — leaf by leaf: every
// virtual time, counter, histogram bucket and ablation column must
// match the baseline EXACTLY. Any drift is either a real change
// (update the baseline deliberately, in the same commit) or a bug. A
// section is gated as soon as the baseline carries it.
//
// A mechanically refreshed baseline would carry a broken value straight
// through that diff, so the properties the reproduction stands on are
// checked on the fresh run itself: the concurrent marker's pause bound,
// serve's det/parallel equivalence, and the msjit speedup floor.
//
// Host-side wall time is the one machine-dependent number in the
// report, so it cannot be compared directly: CI machines and laptops
// differ by integer factors. Instead the gate compares each state's
// *relative* host cost — host ns per virtual ms, summed over the
// state's benchmarks and normalized by the run-wide median of that
// ratio. A uniformly slower machine scales every ratio equally and
// passes; a change that makes one state's host-side execution
// disproportionately slower moves its normalized ratio and fails. The
// comparison is per state, not per benchmark: individual benchmarks
// run for a few host milliseconds, where scheduler noise on a small CI
// machine routinely exceeds any sensible tolerance.

// GateTolerance bounds how far a state's normalized host ratio may
// drift above the baseline's.
const GateTolerance = 0.20

// GateFinding is one detected regression or mismatch. Where is the
// JSON path of the differing or offending report field, for example
// table2[1].metrics.interp.sends, or the state whose host ratio drifted.
type GateFinding struct {
	Where  string `json:"where"`
	Detail string `json:"detail"`
}

// GateReport is the outcome of one gate comparison.
type GateReport struct {
	BaselinePath string        `json:"baseline"`
	Exact        int           `json:"exact_checks"`
	Props        int           `json:"property_checks"`
	Host         int           `json:"host_checks"`
	SkippedHost  int           `json:"host_checks_skipped"`
	Findings     []GateFinding `json:"findings"`
}

// OK reports whether the fresh run passed the gate.
func (g *GateReport) OK() bool { return len(g.Findings) == 0 }

func (g *GateReport) fail(where, format string, args ...any) {
	g.Findings = append(g.Findings, GateFinding{Where: where, Detail: fmt.Sprintf(format, args...)})
}

// LoadBaseline reads a checked-in msbench JSON report. Decoding is
// strict: a baseline field the report schema no longer has is an
// error, not a value that silently drops out of the gate.
func LoadBaseline(path string) (*JSONReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bench: gate baseline: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var r JSONReport
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: gate baseline %s: %w", path, err)
	}
	if len(r.Table2) == 0 {
		return nil, fmt.Errorf("bench: gate baseline %s: no table2 states", path)
	}
	return &r, nil
}

// hostRatios returns each state's host-ns-per-virtual-ms (summed over
// its benchmarks) normalized by the run-wide median, keyed by state
// name. States too short to time reliably are omitted.
func hostRatios(r *JSONReport) map[string]float64 {
	raw := map[string]float64{}
	var all []float64
	for _, st := range r.Table2 {
		var hostNS, virtMS int64
		for _, b := range st.Benches {
			hostNS += b.HostNS
			virtMS += b.VirtualMS
		}
		if virtMS < 5 || hostNS <= 0 {
			continue
		}
		v := float64(hostNS) / float64(virtMS)
		raw[st.State] = v
		all = append(all, v)
	}
	if len(all) == 0 {
		return raw
	}
	sort.Float64s(all)
	med := all[len(all)/2]
	if med <= 0 {
		return map[string]float64{}
	}
	for k, v := range raw {
		raw[k] = v / med
	}
	return raw
}

// RunGate compares a fresh report against the baseline: the two
// fingerprints must be equal leaf for leaf, the fresh run must hold the
// explicit properties, and normalized host-time ratios may drift by at
// most GateTolerance.
func RunGate(baseline, fresh *JSONReport, baselinePath string) *GateReport {
	g := &GateReport{BaselinePath: baselinePath}

	base, err := fingerprintTree(baseline)
	if err != nil {
		g.fail("baseline", "fingerprint: %v", err)
	}
	cur, err := fingerprintTree(fresh)
	if err != nil {
		g.fail("fresh", "fingerprint: %v", err)
	}
	if g.OK() {
		g.diff("", base, cur)
	}

	if fresh.ConcMark != nil {
		for i, r := range fresh.ConcMark.Rows {
			g.Props++
			if r.ConcMaxPause >= r.SerialMaxPause {
				g.fail(fmt.Sprintf("concmark.rows[%d].conc_max_pause_ticks", i),
					"pause bound broken at keep=%d: concurrent max pause %d ticks >= serial max pause %d ticks",
					r.Keep, r.ConcMaxPause, r.SerialMaxPause)
			}
		}
	}
	if fresh.Serve != nil {
		g.Props++
		if !fresh.Serve.ParallelMatchesDet {
			g.fail("serve.parallel_matches_det", "parallel executors diverged from the deterministic run")
		}
	}
	if fresh.JIT != nil {
		g.Props++
		if fresh.JIT.MedianSpeedup < JITSpeedupFloor {
			g.fail("jit.median_speedup", "template tier %.2fx, floor %.2fx",
				fresh.JIT.MedianSpeedup, JITSpeedupFloor)
		}
	}

	// Host-time drift, on normalized ratios.
	baseRatio, freshRatio := hostRatios(baseline), hostRatios(fresh)
	keys := make([]string, 0, len(baseRatio))
	for k := range baseRatio {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		br := baseRatio[k]
		fr, ok := freshRatio[k]
		if !ok || br <= 0 {
			g.SkippedHost++
			continue
		}
		g.Host++
		if drift := fr/br - 1; drift > GateTolerance {
			g.fail(k, "normalized host cost +%.0f%% over baseline (ratio %.2f -> %.2f, tolerance %.0f%%)",
				100*drift, br, fr, 100*GateTolerance)
		}
	}
	return g
}

// fingerprintTree renders r's fingerprint and decodes it into generic
// values, numbers kept as their JSON text so floats compare exactly.
func fingerprintTree(r *JSONReport) (any, error) {
	raw, err := json.Marshal(fingerprintReport(r))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	err = dec.Decode(&v)
	return v, err
}

// diff walks two fingerprint trees together, counting each compared
// leaf and recording one finding per differing leaf, missing key or
// missing array element, at its JSON path.
func (g *GateReport) diff(path string, base, fresh any) {
	bm, bObj := base.(map[string]any)
	fm, fObj := fresh.(map[string]any)
	ba, bArr := base.([]any)
	fa, fArr := fresh.([]any)
	switch {
	case bObj && fObj:
		keys := make([]string, 0, len(bm)+len(fm))
		for k := range bm {
			keys = append(keys, k)
		}
		for k := range fm {
			if _, ok := bm[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if path != "" {
				p = path + "." + k
			}
			bv, inBase := bm[k]
			fv, inFresh := fm[k]
			g.child(p, bv, fv, inBase, inFresh)
		}
	case bArr && fArr:
		for i := range max(len(ba), len(fa)) {
			var bv, fv any
			if i < len(ba) {
				bv = ba[i]
			}
			if i < len(fa) {
				fv = fa[i]
			}
			g.child(path+"["+strconv.Itoa(i)+"]", bv, fv, i < len(ba), i < len(fa))
		}
	default:
		g.Exact++
		if bObj || fObj || bArr || fArr || base != fresh {
			g.fail(path, "baseline %s, got %s", leafText(base), leafText(fresh))
		}
	}
}

// child diffs one object member or array element that may be absent
// on either side.
func (g *GateReport) child(path string, base, fresh any, inBase, inFresh bool) {
	switch {
	case !inFresh:
		g.fail(path, "missing from fresh run")
	case !inBase:
		g.fail(path, "not in baseline")
	default:
		g.diff(path, base, fresh)
	}
}

// leafText renders one side of a differing leaf for a finding.
func leafText(v any) string {
	switch v.(type) {
	case map[string]any:
		return "an object"
	case []any:
		return "an array"
	}
	b, _ := json.Marshal(v)
	return string(b)
}

// Format renders the gate verdict for terminal output.
func (g *GateReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench gate vs %s (host tolerance %.0f%%)\n", g.BaselinePath, 100*GateTolerance)
	fmt.Fprintf(&b, "  %d exact leaves, %d property checks, %d host-ratio checks (%d skipped under noise floor)\n",
		g.Exact, g.Props, g.Host, g.SkippedHost)
	if g.OK() {
		b.WriteString("  PASS\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  FAIL: %d finding(s)\n", len(g.Findings))
	for _, f := range g.Findings {
		fmt.Fprintf(&b, "    %-40s %s\n", f.Where, f.Detail)
	}
	return b.String()
}

// Fingerprint writes the report with every host-time field zeroed —
// the deterministic residue. CI diffs the fingerprints of two runs
// byte-for-byte, where any difference means the simulator leaked host
// state into virtual results; RunGate diffs the baseline's against a
// fresh run's leaf by leaf.
func Fingerprint(r *JSONReport, w io.Writer) error {
	return fingerprintReport(r).Write(w)
}

// fingerprintReport returns a copy of r with the host-time fields zeroed.
func fingerprintReport(r *JSONReport) *JSONReport {
	cp := *r
	cp.Table2 = make([]JSONState, len(r.Table2))
	for i, st := range r.Table2 {
		cp.Table2[i] = st
		cp.Table2[i].Benches = make([]JSONBench, len(st.Benches))
		for j, b := range st.Benches {
			b.HostNS = 0
			cp.Table2[i].Benches[j] = b
		}
	}
	if r.Sanitize != nil {
		san := *r.Sanitize
		san.Rows = make([]SanitizeRow, len(r.Sanitize.Rows))
		for i, row := range r.Sanitize.Rows {
			row.HostPlainNS, row.HostCheckNS, row.OverheadPct = 0, 0, 0
			san.Rows[i] = row
		}
		cp.Sanitize = &san
	}
	cp.Parallel = nil // wall-clock by definition
	// ParScavenge and ConcMark stay: their columns are virtual ticks
	// and counters, deterministic by construction.
	if r.JIT != nil {
		jr := *r.JIT
		jr.Rows = make([]JITRow, len(r.JIT.Rows))
		for i, row := range r.JIT.Rows {
			row.InterpNS, row.JITNS, row.Speedup = 0, 0, 0
			jr.Rows[i] = row
		}
		jr.MedianSpeedup = 0
		cp.JIT = &jr
	}
	if r.Serve != nil {
		sr := *r.Serve
		sr.Rows = make([]ServeRow, len(r.Serve.Rows))
		for i, row := range r.Serve.Rows {
			row.HostNS = 0
			sr.Rows[i] = row
		}
		cp.Serve = &sr
	}
	return &cp
}

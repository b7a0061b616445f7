package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const gateBaseline = "../../BENCH_pr10.json"

// hostLeaves are the baseline leaves Fingerprint zeroes, with array
// indices written as []: the machine-bound host times and the ratios
// derived from them. Every other leaf is deterministic and gated.
var hostLeaves = map[string]bool{
	"table2[].benches[].host_ns":        true,
	"sanitize.rows[].host_plain_ns":     true,
	"sanitize.rows[].host_checked_ns":   true,
	"sanitize.rows[].host_overhead_pct": true,
	"jit.rows[].interp_host_ns":         true,
	"jit.rows[].jit_host_ns":            true,
	"jit.rows[].speedup":                true,
	"jit.median_speedup":                true,
	"serve.rows[].host_ns":              true,
}

func loadGateBaseline(t *testing.T) *JSONReport {
	t.Helper()
	r, err := LoadBaseline(gateBaseline)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// leaf is one scalar of a JSON document: its path, its byte span in
// the document, and its text there.
type leaf struct {
	path       string
	start, end int64
	text       string
}

// scanLeaves lists every scalar leaf of a JSON document in order.
func scanLeaves(t *testing.T, raw []byte) []leaf {
	t.Helper()
	type frame struct {
		path    string
		arr     bool
		n       int
		key     string
		wantKey bool
	}
	var stack []*frame
	// next returns the path of the next value in the innermost
	// container.
	next := func() string {
		f := stack[len(stack)-1]
		if f.arr {
			f.n++
			return fmt.Sprintf("%s[%d]", f.path, f.n-1)
		}
		f.wantKey = true
		if f.path == "" {
			return f.key
		}
		return f.path + "." + f.key
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var out []leaf
	var prev int64
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		end := dec.InputOffset()
		text := bytes.TrimLeft(raw[prev:end], " \t\r\n,:")
		prev = end
		switch tok {
		case json.Delim('{'), json.Delim('['):
			path := ""
			if len(stack) > 0 {
				path = next()
			}
			stack = append(stack, &frame{path: path, arr: tok == json.Delim('['), wantKey: tok == json.Delim('{')})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
			continue
		}
		if f := stack[len(stack)-1]; f.wantKey {
			f.key, f.wantKey = tok.(string), false
			continue
		}
		out = append(out, leaf{path: next(), start: end - int64(len(text)), end: end, text: string(text)})
	}
}

// perturb returns a different value of the same JSON type: a number
// plus one, a flipped bool, a suffixed string. ok is false for null.
func perturb(text string) (string, bool) {
	switch {
	case text == "null":
		return "", false
	case text == "true":
		return "false", true
	case text == "false":
		return "true", true
	case strings.HasPrefix(text, `"`):
		return text[:len(text)-1] + `-perturbed"`, true
	}
	if n, err := strconv.ParseInt(text, 10, 64); err == nil {
		return strconv.FormatInt(n+1, 10), true
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		panic(err)
	}
	return strconv.FormatFloat(f+1, 'g', -1, 64), true
}

// decodeStrict decodes a report the way LoadBaseline does.
func decodeStrict(raw []byte) (*JSONReport, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var r JSONReport
	return &r, dec.Decode(&r)
}

func TestGateBaselinePassesAgainstItself(t *testing.T) {
	base := loadGateBaseline(t)
	g := RunGate(base, loadGateBaseline(t), gateBaseline)
	if !g.OK() {
		t.Fatalf("unmodified baseline fails the gate:\n%s", g.Format())
	}
	if g.Exact < 2486 {
		t.Errorf("compared %d exact leaves, want at least 2486", g.Exact)
	}
	if g.Host == 0 || g.Props == 0 {
		t.Errorf("host checks %d, property checks %d: want both nonzero", g.Host, g.Props)
	}
}

// The diff must be at least as strict as hand-written checks on every
// field: perturbing any deterministic leaf of the baseline yields a
// finding at exactly that leaf's path, and perturbing a host leaf
// (zeroed by Fingerprint) yields none.
func TestGateFlagsEveryDeterministicLeaf(t *testing.T) {
	base := loadGateBaseline(t)
	indented, err := os.ReadFile(gateBaseline)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, indented); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	leaves := scanLeaves(t, raw)
	index := regexp.MustCompile(`\[\d+\]`)

	// Each perturbation is an independent gate run; spread them over
	// the host's CPUs.
	workers := runtime.GOMAXPROCS(0)
	kept := make([]int, workers)
	host := make([]int, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(leaves); i += workers {
				l := leaves[i]
				v, ok := perturb(l.text)
				if !ok {
					continue
				}
				doc := append(append(append([]byte{}, raw[:l.start]...), v...), raw[l.end:]...)
				fresh, err := decodeStrict(doc)
				if err != nil {
					t.Errorf("%s perturbed to %s: %v", l.path, v, err)
					continue
				}
				g := RunGate(base, fresh, gateBaseline)

				if hostLeaves[index.ReplaceAllString(l.path, "[]")] {
					host[w]++
					if !g.OK() {
						t.Errorf("host leaf %s perturbed: want no finding, got\n%s", l.path, g.Format())
					}
					continue
				}
				kept[w]++
				found := false
				for _, f := range g.Findings {
					found = found || f.Where == l.path
				}
				if !found {
					t.Errorf("deterministic leaf %s perturbed: no finding at its path\n%s", l.path, g.Format())
				}
			}
		}()
	}
	wg.Wait()

	var nKept, nHost int
	for w := range workers {
		nKept += kept[w]
		nHost += host[w]
	}
	if g := RunGate(base, base, gateBaseline); nKept+nHost != g.Exact {
		t.Errorf("perturbed %d deterministic and %d host leaves, but the gate compares %d",
			nKept, nHost, g.Exact)
	}
	seen := map[string]bool{}
	for _, l := range leaves {
		seen[index.ReplaceAllString(l.path, "[]")] = true
	}
	for p := range hostLeaves {
		if !seen[p] {
			t.Errorf("baseline has no host leaf %s: the sweep never exercised it", p)
		}
	}
	t.Logf("%d deterministic leaves flagged at their path, %d host leaves ignored", nKept, nHost)
}

// A mechanically refreshed baseline carries a broken value straight
// through the diff, so each explicit property must fail on its own even
// when baseline and fresh run agree.
func TestGateExplicitProperties(t *testing.T) {
	// Each mutation breaks one property and returns the Where of the
	// finding it must produce.
	cases := []struct {
		name   string
		mutate func(r *JSONReport) string
	}{
		{"concmark pause bound", func(r *JSONReport) string {
			last := len(r.ConcMark.Rows) - 1
			row := &r.ConcMark.Rows[last]
			row.ConcMaxPause = row.SerialMaxPause
			return fmt.Sprintf("concmark.rows[%d].conc_max_pause_ticks", last)
		}},
		{"serve parallel equivalence", func(r *JSONReport) string {
			r.Serve.ParallelMatchesDet = false
			return "serve.parallel_matches_det"
		}},
		{"jit speedup floor", func(r *JSONReport) string {
			r.JIT.MedianSpeedup = JITSpeedupFloor - 0.01
			return "jit.median_speedup"
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := loadGateBaseline(t)
			where := c.mutate(r)
			g := RunGate(r, r, "refreshed")
			if len(g.Findings) != 1 || g.Findings[0].Where != where {
				t.Fatalf("want exactly one finding at %s, got\n%s", where, g.Format())
			}
		})
	}
}

// The host half: one state growing disproportionately more expensive
// than the rest fails past the tolerance and passes within it.
func TestGateHostRatioDrift(t *testing.T) {
	base := loadGateBaseline(t)
	ratios := hostRatios(base)
	slowest := ""
	for k, v := range ratios {
		if slowest == "" || v > ratios[slowest] {
			slowest = k
		}
	}
	for _, c := range []struct {
		scale int64
		fail  bool
	}{{110, false}, {150, true}} {
		fresh := loadGateBaseline(t)
		for i := range fresh.Table2 {
			if fresh.Table2[i].State != slowest {
				continue
			}
			for j := range fresh.Table2[i].Benches {
				b := &fresh.Table2[i].Benches[j]
				b.HostNS = b.HostNS * c.scale / 100
			}
		}
		g := RunGate(base, fresh, gateBaseline)
		flagged := len(g.Findings) == 1 && g.Findings[0].Where == slowest
		if c.fail && !flagged || !c.fail && !g.OK() {
			t.Errorf("state %s host time x%.2f: want fail=%v, got\n%s",
				slowest, float64(c.scale)/100, c.fail, g.Format())
		}
	}
}

// A baseline field the report schema no longer has is an error rather
// than a value that silently drops out of the gate.
func TestLoadBaselineRejectsUnknownFields(t *testing.T) {
	raw, err := os.ReadFile(gateBaseline)
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	interp := tree["table2"].([]any)[0].(map[string]any)["metrics"].(map[string]any)["interp"].(map[string]any)
	interp["retired_counter"] = 7
	out, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stale.json")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadBaseline(path)
	if err == nil || !strings.Contains(err.Error(), "retired_counter") {
		t.Fatalf("LoadBaseline on a stale field: err = %v, want an unknown-field error", err)
	}
}

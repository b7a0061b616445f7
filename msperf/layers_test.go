package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLayerMapCoversInternal: every non-test Go file under internal/
// maps to exactly one layer.
func TestLayerMapCoversInternal(t *testing.T) {
	n := 0
	err := filepath.WalkDir("../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, "../"))
		var hits []string
		for _, l := range layerMap {
			if strings.HasPrefix(rel, l.prefix) {
				hits = append(hits, l.bucket)
			}
		}
		if len(hits) != 1 {
			t.Errorf("%s maps to %d layers %v, want 1", rel, len(hits), hits)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 50 {
		t.Fatalf("walked only %d files", n)
	}
}

// TestClassify pins the attribution rules on hand-made stacks.
func TestClassify(t *testing.T) {
	cases := []struct {
		frames []frame
		want   string
	}{
		{[]frame{{"runtime.memmove", "runtime/memmove_amd64.s"}, {"mst/internal/heap.(*Heap).copy", "mst@v0.0.0/internal/heap/scavenge.go"}}, "heap.scavenge"},
		{[]frame{{"runtime.futex", "runtime/sys_linux_amd64.s"}, {"runtime.chanrecv", "runtime/chan.go"}, {"mst/internal/firefly.(*Proc).Yield", "mst@v0.0.0/internal/firefly/machine.go"}}, "runtime.sched"},
		{[]frame{{"runtime.findRunnable", "runtime/proc.go"}, {"runtime.schedule", "runtime/proc.go"}}, "runtime.sched"},
		{[]frame{{"runtime.scanobject", "runtime/mgcmark.go"}, {"runtime.gcDrain", "runtime/mgcmark.go"}}, "go.gc"},
		{[]frame{{"main.run", "mst/msperf/main.go"}}, "bench"},
		{[]frame{{"syscall.Syscall", "syscall/syscall_linux.go"}}, "unattributed"},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestMetricSetsMatchBenchmarkJSON: the metrics the program prints are
// exactly the ones BENCHMARK.json declares, with the same units.
func TestMetricSetsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(what string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", what, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", what, i, d, g)
			}
		}
	}
	check("end_to_end", endToEndDefs, bj.EndToEnd)
	check("per_layer", perLayerDefs, bj.PerLayer)
}

package main

import (
	"fmt"
	"time"

	"mst/internal/bench"
)

// table2 runs the paper's evaluation: the eight macro benchmarks under
// the four system states, each state on a fresh boot with the
// paper-faithful configuration, one pass from boot as msbench -table2
// runs it. Later passes settle as caches fill and objects tenure, so a
// round always starts from boot. It has no randomness; the seed is
// ignored.
type table2 struct{}

func (table2) prepare(*tracer) error { return nil }

func (table2) round(tr *tracer) (roundResult, error) {
	r := roundResult{parts: map[string]time.Duration{}, t: newTally()}
	cell := map[string]float64{} // "state/macro" -> virtual ms
	var lat []float64
	for _, st := range bench.StandardStates() {
		end := tr.begin("core.boot")
		sys, err := bench.NewBenchSystem(st)
		r.setup += end()
		if err != nil {
			return r, err
		}
		done := r.t.watch(sys)
		stop := tr.timed()
		for _, mb := range bench.MacroBenchmarks {
			r.ops++
			r.compiles++
			n0 := len(sys.VM.Errors())
			end := tr.begin("bench.run_macro")
			ms, err := bench.RunMacro(sys, mb.Selector)
			end()
			err = checkOp(sys, n0, err)
			if err != nil {
				// RunMacro insists on an Integer answer, so a
				// wrong answer arrives here too.
				r.failed++
				r.wrong = append(r.wrong, fmt.Sprintf("%s/%s: %v", st.Name, mb.Selector, err))
				continue
			}
			cell[st.Name+"/"+mb.Selector] = float64(ms)
			lat = append(lat, float64(ms))
			r.virt.ms += float64(ms)
		}
		r.parts[st.Name] = stop()
		r.wall += r.parts[st.Name]
		done()
		sys.Shutdown()
	}
	// The paper's "about 40% on average": ms-busy over baseline, per
	// macro, averaged.
	var over float64
	for _, mb := range bench.MacroBenchmarks {
		base := cell["baseline/"+mb.Selector]
		if base > 0 {
			over += cell["ms-busy/"+mb.Selector]/base - 1
		}
	}
	r.virt.setLatency(lat)
	r.virt.opsPerS = float64(r.ops-r.failed) / (r.virt.ms / 1000)
	r.virt.extra = map[string]float64{
		"table2.busy_overhead_pct": 100 * over / float64(len(bench.MacroBenchmarks)),
	}
	return r, nil
}

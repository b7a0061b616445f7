package main

import (
	"fmt"
	"strconv"
	"strings"

	"mst/internal/core"
)

// The churn workload: worker Processes on the five-processor MS+
// machine, each keeping a sliding window of freshly allocated Arrays
// in its own old Array. Every store into the window is an old-to-young
// store, so the remembered set, scavenges and tenuring carry the load;
// one worker also forces full collections.
const (
	churnWorkers = 4
	churnRounds  = 8
	churnSteps   = 5000 // allocations per worker round
	churnWindow  = 2000 // slots per worker window
	churnGCEvery = 4    // the collector worker's full-GC period, in rounds
	churnModulus = 1000003
)

// churnSource defines the worker (a format string: the full-GC
// period and the checksum modulus). Workers are forked from a method:
// Smalltalk-80 blocks share their home context's temporaries, so a
// block forked inside a loop would not capture the loop variable.
const churnSource = `
Object subclass: #ChurnWorker
	instanceVariableNames: 'x window rounds steps collector done sum elapsed'
	category: 'Benchmarks'!

!ChurnWorker class methodsFor: 'instance creation'!
seed: s window: w rounds: r steps: n collector: c done: sem
	^self new setSeed: s window: w rounds: r steps: n collector: c done: sem! !

!ChurnWorker methodsFor: 'initialization'!
setSeed: s window: w rounds: r steps: n collector: c done: sem
	x := s.
	window := Array new: w.
	rounds := r.
	steps := n.
	collector := c.
	done := sem! !

!ChurnWorker methodsFor: 'running'!
start
	[self run] fork!
run
	| t0 |
	t0 := self millisecondClockValue.
	1 to: rounds do: [:r |
		self churn.
		(collector and: [r \\ %d = 0]) ifTrue: [Smalltalk garbageCollect]].
	sum := 0.
	window do: [:each | each isNil ifFalse: [sum := sum + (each at: 1) \\ %d]].
	elapsed := self millisecondClockValue - t0.
	done signal!
churn
	1 to: steps do: [:i | self step: i]!
step: i
	"Replace a seeded slot of the window with a fresh Array."
	| a |
	x := x * 75 + 74 \\ 65537.
	a := Array new: 8.
	a at: 1 put: x.
	a at: 2 put: i.
	window at: x \\ window size + 1 put: a!
sum
	^sum!
elapsed
	^elapsed! !
`

// churn runs the program on a fresh boot each round.
type churn struct {
	source string  // the doit
	want   []int64 // per-worker checksums, computed in Go
	probe  string  // outcome of the program under ConcMark
	probed bool    // whether the ConcMark run failed
}

func newChurn(seed uint64) *churn {
	c := &churn{}
	r := splitmix{seed}
	var b strings.Builder
	b.WriteString("| done ws | done := Semaphore new. ws := Array new: " + strconv.Itoa(churnWorkers) + ".\n")
	for i := 0; i < churnWorkers; i++ {
		// The generator x := 75x + 74 mod 65537 cycles through
		// 0..65535; 65536 is its fixed point, so seeds stay below it.
		s := int64(r.next() % 65536)
		c.want = append(c.want, churnChecksum(s))
		fmt.Fprintf(&b, "ws at: %d put: (ChurnWorker seed: %d window: %d rounds: %d steps: %d collector: %v done: done).\n",
			i+1, s, churnWindow, churnRounds, churnSteps, i == 0)
	}
	b.WriteString("ws do: [:w | w start].\n")
	fmt.Fprintf(&b, "%d timesRepeat: [done wait].\n", churnWorkers)
	b.WriteString("(ws collect: [:w | w sum]), (ws collect: [:w | w elapsed])")
	c.source = b.String()
	return c
}

// churnChecksum is the Go model of one worker's window checksum.
func churnChecksum(seed int64) int64 {
	x := seed
	var window [churnWindow]int64
	var filled [churnWindow]bool
	for i := 0; i < churnRounds*churnSteps; i++ {
		x = (x*75 + 74) % 65537
		window[x%churnWindow] = x
		filled[x%churnWindow] = true
	}
	var sum int64
	for i, v := range window {
		if filled[i] {
			sum = (sum + v) % churnModulus
		}
	}
	return sum
}

func churnConfig() core.Config {
	cfg := core.MSPlusConfig()
	cfg.JIT = true
	cfg.ParScavenge = true
	cfg.ExtraSources = []string{fmt.Sprintf(churnSource, churnGCEvery, churnModulus)}
	return cfg
}

// prepare runs the program once under ConcMark, untimed. The
// concurrent marker has known failures on it (NOTES.md); the outcome
// is reported, not hidden.
func (c *churn) prepare(tr *tracer) error {
	cfg := churnConfig()
	cfg.ConcMark = true
	end := tr.begin("core.boot")
	sys, err := core.NewSystem(cfg)
	end()
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	n0 := len(sys.VM.Errors())
	end = tr.begin("core.evaluate")
	ans, err := sys.Evaluate(c.source)
	end()
	if err = checkOp(sys, n0, err); err == nil {
		_, err = c.check(ans)
	}
	c.probed = err != nil
	c.probe = "ok"
	if err != nil {
		c.probe = err.Error()
	}
	return nil
}

// check parses the answer, "(s1 .. s4 e1 .. e4 )", against the model
// and returns the per-worker elapsed virtual milliseconds.
func (c *churn) check(ans string) ([]float64, error) {
	f := strings.Fields(strings.Trim(ans, "()"))
	if len(f) != 2*churnWorkers {
		return nil, fmt.Errorf("churn: answer %q", ans)
	}
	var elapsed []float64
	for i, s := range f {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("churn: answer %q", ans)
		}
		if i < churnWorkers {
			if v != c.want[i] {
				return nil, fmt.Errorf("churn: worker %d checksum %d, want %d", i, v, c.want[i])
			}
			continue
		}
		elapsed = append(elapsed, float64(v))
	}
	return elapsed, nil
}

func (c *churn) round(tr *tracer) (roundResult, error) {
	r := roundResult{t: newTally(), ops: churnWorkers, compiles: 1}
	end := tr.begin("core.boot")
	sys, err := core.NewSystem(churnConfig())
	r.setup = end()
	if err != nil {
		return r, err
	}
	defer sys.Shutdown()
	done := r.t.watch(sys)
	n0 := len(sys.VM.Errors())
	end = tr.begin("core.evaluate")
	stop := tr.timed()
	ans, err := sys.Evaluate(c.source)
	r.wall = stop()
	end()
	done()
	var elapsed []float64
	if err = checkOp(sys, n0, err); err == nil {
		elapsed, err = c.check(ans)
	}
	if err != nil {
		r.failed = churnWorkers
		r.wrong = append(r.wrong, err.Error())
		return r, nil
	}
	r.virt.ms = float64(r.t.virtualTicks) / 1000
	r.virt.setLatency(elapsed)
	r.virt.opsPerS = churnWorkers / (r.virt.ms / 1000)
	return r, nil
}

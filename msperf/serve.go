package main

import (
	"fmt"
	"strconv"
	"time"

	"mst/internal/core"
	"mst/internal/serve"
	"mst/internal/serve/loadgen"
)

// The serve workload: msserve's open loop in virtual time, with the
// CLI's default front end.
const (
	serveTenants   = 8
	serveExecutors = 2
	serveRequests  = 10000
	// serveNominalGap is the mean inter-arrival gap, in virtual ticks
	// (µs), of the timed schedule: 125 req/s, far enough below
	// saturation that no seed sheds.
	serveNominalGap = 8000
	// serveLimitTicks is the p99 latency limit of the sustained rate,
	// about ten median service times.
	serveLimitTicks = 25000
	// serveShedLimitPct is the share of offered requests a sustained
	// rate may shed: a shed request misses the latency limit, so with
	// the p99 limit at most 1% may miss.
	serveShedLimitPct = 1
	// serveDispatchTicks is msserve's per-request dispatch charge: a
	// request's service time is this plus its tenant's virtual time.
	serveDispatchTicks = 25
	// serveCheckpoints is how many base boots set-up times.
	serveCheckpoints = 15
)

// serveSweepGaps are the swept offered rates as mean gaps: 125, 250,
// 500, 1000 and 2000 req/s. The tenant-share limit sheds a few
// requests from 250 req/s up, so "nothing shed" would make the
// sustained rate hinge on single requests of the seed's schedule.
var serveSweepGaps = []int64{8000, 4000, 2000, 1000, 500}

// Catalog answers the oracle knows without running the program.
var serveAnswers = map[string]string{"sum": "1275", "alloc": "2304"}

type serveW struct {
	seed     uint64
	arrivals []loadgen.Arrival
	cp       *core.Checkpoint
	setups   []time.Duration

	// From the replay of each tenant's requests on a private clone.
	replay      *tally
	replayTicks int64 // summed tenant virtual time over all requests
	replayWrong []string
	wantDigest  []string

	// From the rate sweep.
	sustained  float64 // virtual req/s
	sweepP99Ms map[int64]float64
}

func newServe(seed uint64) *serveW {
	return &serveW{seed: seed, arrivals: serveSchedule(seed, serveNominalGap)}
}

func serveSchedule(seed uint64, gap int64) []loadgen.Arrival {
	return loadgen.Schedule(loadgen.Config{
		Seed:         seed,
		Requests:     serveRequests,
		MeanGapTicks: gap,
		Tenants:      serveTenants,
		Kinds:        len(serve.Catalog),
		HotTenant:    -1,
	})
}

func (s *serveW) newServer() (*serve.Server, error) {
	return serve.NewServer(serve.Config{Tenants: serveTenants, Executors: serveExecutors, Checkpoint: s.cp})
}

func (s *serveW) prepare(tr *tracer) error {
	for i := 0; i < serveCheckpoints; i++ {
		end := tr.begin("serve.checkpoint")
		cp, err := serve.BootCheckpoint()
		s.setups = append(s.setups, end())
		if err != nil {
			return err
		}
		s.cp = cp
	}
	if err := s.runReplay(tr); err != nil {
		return err
	}
	return s.sweep(tr)
}

// runReplay serves each tenant's requests, in arrival order, on a
// private clone of the checkpoint. With nothing shed that is exactly
// the work the server's tenants do, so it yields their layer counters,
// checks every answer against a Go model of the session, and fixes the
// summed service time every timed round must reproduce.
func (s *serveW) runReplay(tr *tracer) error {
	s.replay = newTally()
	s.wantDigest = make([]string, serveTenants)
	for t := 0; t < serveTenants; t++ {
		end := tr.begin("core.clone")
		sys, err := core.NewFromCheckpoint(1, s.cp)
		end()
		if err != nil {
			return err
		}
		done := s.replay.watch(sys)
		hits, notes := 0, 0
		for _, a := range s.arrivals {
			if a.Tenant != t {
				continue
			}
			k := serve.Catalog[a.Kind%len(serve.Catalog)]
			var want string
			switch k.Name {
			case "bump":
				hits++
				want = strconv.Itoa(hits)
			case "digest":
				want = fmt.Sprintf("'%d/%d'", hits, notes)
			case "note":
				notes++
				want = strconv.Itoa(notes)
			default:
				want = serveAnswers[k.Name]
			}
			n0 := len(sys.VM.Errors())
			vt0 := sys.VirtualTime()
			got, err := sys.Evaluate(k.Source)
			s.replayTicks += int64(sys.VirtualTime() - vt0)
			if err = checkOp(sys, n0, err); err != nil || got != want {
				s.replayWrong = append(s.replayWrong, fmt.Sprintf("tenant %d %s: got %q (%v), want %q", t, k.Name, got, err, want))
			}
		}
		done()
		s.wantDigest[t] = fmt.Sprintf("'%d/%d'", hits, notes)
		sys.Shutdown()
	}
	return nil
}

// sweep serves the same seed's schedule at each swept rate; the
// highest rate whose p99 meets the limit, shedding at most 1%, is the
// sustained rate.
func (s *serveW) sweep(tr *tracer) error {
	s.sweepP99Ms = map[int64]float64{}
	for _, gap := range serveSweepGaps {
		srv, err := s.newServer()
		if err != nil {
			return err
		}
		end := tr.begin("serve.run")
		rep, err := srv.Run(serveSchedule(s.seed, gap))
		end()
		srv.Shutdown()
		if err != nil {
			return err
		}
		s.sweepP99Ms[gap] = float64(rep.Latency.P99) / 1000
		shed := pctOf(float64(rep.Rejected), float64(rep.Offered))
		rate := 1e6 / float64(gap)
		if shed <= serveShedLimitPct && rep.Errors == 0 && rep.Latency.P99 <= serveLimitTicks && rate > s.sustained {
			s.sustained = rate
		}
	}
	return nil
}

func (s *serveW) round(tr *tracer) (roundResult, error) {
	r := roundResult{t: s.replay, ops: len(s.arrivals), compiles: len(s.arrivals) + serveTenants + len(serveAnswers)}
	srv, err := s.newServer()
	if err != nil {
		return r, err
	}
	defer srv.Shutdown()
	end := tr.begin("serve.run")
	stop := tr.timed()
	rep, err := srv.Run(s.arrivals)
	r.wall = stop()
	end()
	if err != nil {
		return r, err
	}
	// A request fails when it errors or is shed.
	r.failed = rep.Rejected + rep.Errors
	r.wrong = append(r.wrong, s.replayWrong...)
	if rep.Rejected == 0 {
		if got, want := rep.Service.Sum, s.replayTicks+serveDispatchTicks*int64(rep.Admitted); got != want {
			r.wrong = append(r.wrong, fmt.Sprintf("serve: service ticks %d, replay says %d", got, want))
		}
		for t := 0; t < serveTenants; t++ {
			end := tr.begin("serve.eval")
			got, err := srv.Eval(t, "Session digest")
			end()
			if err != nil || got != s.wantDigest[t] {
				r.wrong = append(r.wrong, fmt.Sprintf("serve: tenant %d digest %q (%v), want %q", t, got, err, s.wantDigest[t]))
			}
		}
	}
	for _, k := range serve.Catalog {
		if want, ok := serveAnswers[k.Name]; ok {
			if got, err := srv.Eval(0, k.Source); err != nil || got != want {
				r.wrong = append(r.wrong, fmt.Sprintf("serve: %s answered %q (%v), want %q", k.Name, got, err, want))
			}
		}
	}
	r.virt = virtOutcome{
		ms:      float64(rep.Service.Sum) / 1000,
		p50:     float64(rep.Latency.P50) / 1000,
		p99:     float64(rep.Latency.P99) / 1000,
		samples: int(rep.Latency.Count),
		opsPerS: s.sustained,
		extra: map[string]float64{
			"serve.admitted":       float64(rep.Admitted),
			"serve.rejected":       float64(rep.Rejected),
			"serve.rejected_share": float64(rep.RejectedShare),
			"serve.errors":         float64(rep.Errors),
			"serve.shed_pct":       pctOf(float64(rep.Rejected), float64(rep.Offered)),
			"serve.wait_p99_ms":    float64(rep.Wait.P99) / 1000,
			"serve.service_p99_ms": float64(rep.Service.P99) / 1000,
			"serve.sustained_rps":  s.sustained,
		},
	}
	for _, g := range serveSweepGaps {
		r.virt.extra[fmt.Sprintf("serve.p99_ms.r%d", int64(1e6)/g)] = s.sweepP99Ms[g]
	}
	return r, nil
}

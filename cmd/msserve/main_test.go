package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"mst/internal/serve"
	"mst/internal/serve/loadgen"
)

func newServer(t *testing.T, tenants int) *serve.Server {
	t.Helper()
	srv, err := serve.NewServer(serve.Config{Tenants: tenants, Executors: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}

// An erroring stdin request still gets its response line, later lines
// are still served, and the run reports failure (exit status 1).
func TestStdinFailsOnRequestError(t *testing.T) {
	srv := newServer(t, 2)
	var out bytes.Buffer
	if serveStdin(srv, strings.NewReader("0\t3 + 4\n"), &out) {
		t.Fatalf("clean run reported failure:\n%s", out.String())
	}
	out.Reset()
	if !serveStdin(srv, strings.NewReader("1\tnil foo\n0\t3 + 4\n"), &out) {
		t.Fatalf("run with an erroring request reported success:\n%s", out.String())
	}
	if got, want := out.String(), "error: interp: process terminated by VM error\n0\t7\n"; got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

// A schedule whose requests error prints the full report and then
// reports failure; the same schedule on healthy tenants succeeds.
func TestScheduleFailsOnRequestError(t *testing.T) {
	arrivals := loadgen.Schedule(loadgen.Config{
		Seed: 1, Requests: 12, MeanGapTicks: 2000, Tenants: 2,
		Kinds: len(serve.Catalog), HotTenant: -1,
	})
	var out bytes.Buffer
	if serveSchedule(newServer(t, 2), arrivals, "", &out, io.Discard) {
		t.Fatalf("clean schedule reported failure:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "errors 0") {
		t.Fatalf("clean report does not show errors 0:\n%s", out.String())
	}

	srv := newServer(t, 2)
	// Every tenant loses its session object, so session requests die
	// with doesNotUnderstand on nil.
	for tenant := 0; tenant < 2; tenant++ {
		if _, err := srv.Eval(tenant, "Smalltalk at: 'Session' put: nil. 0"); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if !serveSchedule(srv, arrivals, "", &out, io.Discard) {
		t.Fatalf("schedule with erroring requests reported success:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "p99") || strings.Contains(out.String(), "errors 0") {
		t.Errorf("failing run must still print its report, with nonzero errors:\n%s", out.String())
	}
}

package heap_test

import (
	"runtime"
	"testing"
	"time"

	"mst/internal/core"
	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/object"
)

// settledMappedWords collects until every unreachable heap's words are
// returned (finalizers run asynchronously, after the collection that
// finds them), then reports the live count.
func settledMappedWords(t *testing.T) int64 {
	t.Helper()
	prev := int64(-1)
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		n := heap.LiveMappedWords()
		if n == prev {
			return n
		}
		prev = n
	}
	t.Fatalf("mapped word count never settled (last %d)", prev)
	return 0
}

func smallConfig() heap.Config {
	cfg := heap.DefaultConfig()
	cfg.OldWords = 1 << 16
	return cfg
}

func TestReleaseReturnsWords(t *testing.T) {
	base := settledMappedWords(t)
	h := heap.New(firefly.New(1, firefly.DefaultCosts()), smallConfig())
	if got := heap.LiveMappedWords(); got <= base {
		t.Fatalf("New mapped nothing: %d live words, baseline %d", got, base)
	}
	h.Release()
	h.Release() // idempotent
	if got := heap.LiveMappedWords(); got != base {
		t.Fatalf("after Release: %d live words, want baseline %d", got, base)
	}
}

// TestDroppedHeapUnmappedByGC drops heaps without Release. The
// concurrent-marking heap sits in a reference cycle through its
// machine's assist hook, which must not keep its words mapped.
func TestDroppedHeapUnmappedByGC(t *testing.T) {
	base := settledMappedWords(t)
	func() {
		h := heap.New(firefly.New(1, firefly.DefaultCosts()), smallConfig())
		h.Header(object.Nil) // touch it
		cfg := smallConfig()
		cfg.ConcMark = true
		heap.New(firefly.New(1, firefly.DefaultCosts()), cfg)
	}()
	if got := heap.LiveMappedWords(); got <= base {
		t.Fatalf("New mapped nothing: %d live words, baseline %d", got, base)
	}
	if got := settledMappedWords(t); got != base {
		t.Fatalf("dropped heap not unmapped: %d live words, want baseline %d", got, base)
	}
}

func TestAccessAfterReleasePanics(t *testing.T) {
	h := heap.New(firefly.New(1, firefly.DefaultCosts()), smallConfig())
	h.Release()
	defer func() {
		r := recover()
		if _, ok := r.(runtime.Error); !ok {
			t.Fatalf("access after Release: recovered %v, want a runtime error", r)
		}
	}()
	h.Header(object.Nil)
	t.Fatal("access after Release did not panic")
}

// TestBootShutdownCyclesReturnWords boots and shuts down each standard
// mode several times: Shutdown must hand every heap word back, so the
// live count returns to its baseline without help from the collector.
func TestBootShutdownCyclesReturnWords(t *testing.T) {
	cfgs := []core.Config{core.BaselineConfig(), core.DefaultConfig(), core.MSPlusConfig()}
	base := settledMappedWords(t)
	for cycle := 0; cycle < 3; cycle++ {
		for _, cfg := range cfgs {
			sys, err := core.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.EvaluateInt("3 + 4"); err != nil {
				t.Fatal(err)
			}
			if got := heap.LiveMappedWords(); got <= base {
				t.Fatalf("booted system maps nothing: %d live words, baseline %d", got, base)
			}
			sys.Shutdown()
			sys.Shutdown() // a second Shutdown is a no-op
			if got := heap.LiveMappedWords(); got != base {
				t.Fatalf("cycle %d %v: %d live words after Shutdown, want baseline %d",
					cycle, cfg.Mode, got, base)
			}
		}
	}
}

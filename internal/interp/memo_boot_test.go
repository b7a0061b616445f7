package interp_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"mst/internal/core"
	"mst/internal/interp"
)

// TestCompileMemoBootExact boots the same configuration twice from an
// empty compile memo: the first boot compiles every kernel method, the
// second takes every one from the memo. The two images and every
// counter must be identical.
func TestCompileMemoBootExact(t *testing.T) {
	boot := func() ([]byte, core.Stats, any) {
		img, stats, metrics, err := bootImage()
		if err != nil {
			t.Fatal(err)
		}
		return img, stats, metrics
	}
	interp.ResetCompileMemo()
	img1, stats1, metrics1 := boot()
	cold := interp.CompileMemoEntries()
	if len(cold) < 100 {
		t.Fatalf("first boot memoized only %d methods", len(cold))
	}
	img2, stats2, metrics2 := boot()
	warm := interp.CompileMemoEntries()
	if len(warm) != len(cold) {
		t.Fatalf("second boot grew the memo from %d to %d entries", len(cold), len(warm))
	}
	for k, m := range cold {
		if warm[k] != m {
			t.Fatalf("second boot recompiled %q", k)
		}
	}
	if !bytes.Equal(img1, img2) {
		t.Fatal("memo-hit boot saved a different image")
	}
	if !reflect.DeepEqual(stats1, stats2) {
		t.Fatalf("Stats differ:\ncold %+v\nwarm %+v", stats1, stats2)
	}
	if !reflect.DeepEqual(metrics1, metrics2) {
		t.Fatal("Metrics differ between the cold and the warm boot")
	}
}

// TestCompileMemoConcurrentBoots boots several systems at once from an
// empty memo, so their file-ins race on it; every image must match.
func TestCompileMemoConcurrentBoots(t *testing.T) {
	interp.ResetCompileMemo()
	imgs := make([][]byte, 3)
	var wg sync.WaitGroup
	for i := range imgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			img, _, _, err := bootImage()
			if err != nil {
				t.Error(err)
				return
			}
			imgs[i] = img
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(imgs); i++ {
		if !bytes.Equal(imgs[0], imgs[i]) {
			t.Fatalf("concurrent boot %d saved a different image", i)
		}
	}
}

// bootImage boots the default configuration and returns its saved
// image and counters.
func bootImage() ([]byte, core.Stats, any, error) {
	sys, err := core.NewSystem(core.DefaultConfig())
	if err != nil {
		return nil, core.Stats{}, nil, err
	}
	defer sys.Shutdown()
	var img bytes.Buffer
	if err := sys.SaveImage(&img); err != nil {
		return nil, core.Stats{}, nil, err
	}
	return img.Bytes(), sys.Stats(), sys.Metrics(), nil
}

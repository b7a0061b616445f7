package interp

import (
	"bytes"
	"testing"

	"mst/internal/compiler"
)

// The same source under a different inst-var list must miss: the
// inst-var indices it compiles to differ.
func TestCompileMemoKeyedOnInstVars(t *testing.T) {
	const src = "memoProbeX ^x"
	env1 := compiler.MapEnv{InstVars: []string{"x"}}
	env2 := compiler.MapEnv{InstVars: []string{"y", "x"}}
	m1, err := compileMemoized(src, env1.InstVars, env1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := compileMemoized(src, env1.InstVars, env1)
	if err != nil {
		t.Fatal(err)
	}
	if again != m1 {
		t.Fatal("same source and inst vars recompiled; want a memo hit")
	}
	m2, err := compileMemoized(src, env2.InstVars, env2)
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m1 {
		t.Fatal("different inst-var list hit the memo")
	}
	if bytes.Equal(m1.Code, m2.Code) {
		t.Fatalf("inst var x compiled to the same code at index 0 and 1: % x", m1.Code)
	}
}

// Flipping a lowercase name's IsGlobal answer must force a recompile,
// and a failed compile must not be cached.
func TestCompileMemoRevalidatesGlobals(t *testing.T) {
	const src = "memoProbeCounter ^memoProbeCounter"
	global := compiler.MapEnv{Globals: map[string]bool{"memoProbeCounter": true}}
	local := compiler.MapEnv{}
	m1, err := compileMemoized(src, nil, global)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compileMemoized(src, nil, local); err == nil {
		t.Fatal("undeclared variable compiled: the memo served a stale global answer")
	}
	m2, err := compileMemoized(src, nil, global)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatal("failed compile replaced the cached method")
	}
	if _, err := compileMemoized("memoProbeBroken ^(", nil, local); err == nil {
		t.Fatal("syntax error compiled")
	}
	for k := range CompileMemoEntries() {
		if bytes.Contains([]byte(k), []byte("memoProbeBroken")) {
			t.Fatal("failed compile was cached")
		}
	}
}

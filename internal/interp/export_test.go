package interp

import "mst/internal/compiler"

// CompileMemoEntries returns the compile memo's methods by key, so a
// test can tell a hit (the same *compiler.Method) from a recompile.
func CompileMemoEntries() map[string]*compiler.Method {
	out := map[string]*compiler.Method{}
	compileMemo.Range(func(k, v any) bool {
		key := k.(memoKey)
		out[key.instVars+"\x00"+key.source] = v.(*memoEntry).m
		return true
	})
	return out
}

// ResetCompileMemo empties the compile memo.
func ResetCompileMemo() {
	compileMemo.Range(func(k, _ any) bool {
		compileMemo.Delete(k)
		return true
	})
}

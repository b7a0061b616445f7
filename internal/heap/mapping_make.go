//go:build !unix || race

package heap

// mapWords returns n zeroed words from the Go heap. The race build
// uses this variant on every platform: the race detector ignores
// addresses outside the Go heap, so mapped words would silently stop
// being checked.
func mapWords(n int) []uint64 { return make([]uint64, n) }

// unmapWords leaves the words to the garbage collector.
func unmapWords([]uint64) {}

//go:build unix && !race

package heap

import (
	"fmt"
	"syscall"
	"unsafe"
)

// mapWords returns n zeroed words backed by an anonymous private
// mapping outside the Go heap. Its pages become resident only when
// touched, and the Go runtime never scans or zeroes them.
func mapWords(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("heap: mapping %d words: %v", n, err))
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// unmapWords returns words obtained from mapWords to the OS.
func unmapWords(w []uint64) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8)
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("heap: unmapping %d words: %v", len(w), err))
	}
}

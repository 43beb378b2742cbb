// Package heapsize says what the Go allocator hands out for an object: the
// size class a small one rounds up to, or the whole pages a large one
// takes. The packed structures count their memory with it — the TRS-Tree's
// arrays, the row store's blocks — so that what they report is what the
// heap holds.
package heapsize

import "slices"

// maxSmall is the largest allocation the allocator serves from a size
// class; a larger one takes whole pages.
const (
	maxSmall = 32 << 10
	pageSize = 8 << 10
)

// sizeClasses are the allocator's size classes in bytes, probed from the
// runtime: append rounds a fresh array of bytes up to its class.
var sizeClasses = func() []int {
	var cs []int
	for n := 1; n <= maxSmall; n = cs[len(cs)-1] + 1 {
		cs = append(cs, cap(append([]byte(nil), make([]byte, n)...)))
	}
	return cs
}()

// Of is what the heap holds for an object of size bytes: the size class it
// rounds up to — after an 8-byte header for an object of more than 512
// bytes that holds pointers — or whole pages past maxSmall.
func Of(size int, pointers bool) uint64 {
	switch {
	case size == 0:
		return 0
	case size > maxSmall-8:
		return uint64((size + pageSize - 1) &^ (pageSize - 1))
	case pointers && size > 512:
		size += 8
	}
	i, _ := slices.BinarySearch(sizeClasses, size)
	return uint64(sizeClasses[i])
}

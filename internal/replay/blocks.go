package replay

// blocks is a deque of fixed-size, pointer-free blocks addressed by
// absolute index: element i lives in block i>>shift at offset
// i&(1<<shift-1). Blocks are allocated as the head advances and recycled as
// the tail does, so the storage grows on demand without ever moving what it
// holds, and the only pointers the garbage collector sees are the block
// headers.
type blocks[T any] struct {
	shift uint
	live  [][]T // live[j] is block base+j
	base  uint64
	spare [][]T
}

// span returns the elements from absolute index i to the end of i's block,
// adding blocks up to it on demand.
func (b *blocks[T]) span(i uint64) []T {
	blk := i >> b.shift
	for blk >= b.base+uint64(len(b.live)) {
		if n := len(b.spare); n > 0 {
			b.live = append(b.live, b.spare[n-1])
			b.spare = b.spare[:n-1]
		} else {
			b.live = append(b.live, make([]T, 1<<b.shift))
		}
	}
	return b.live[blk-b.base][i&(1<<b.shift-1):]
}

// trim recycles the blocks that lie wholly below absolute index i.
func (b *blocks[T]) trim(i uint64) {
	n := 0
	for n < len(b.live) && b.base+uint64(n+1) <= i>>b.shift {
		n++
	}
	b.spare = append(b.spare, b.live[:n]...)
	b.live = b.live[:copy(b.live, b.live[n:])]
	b.base += uint64(n)
	if len(b.live) == 0 {
		b.base = i >> b.shift
	}
}

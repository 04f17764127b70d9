// Package slab recycles the simulator's large fixed-length arrays across
// simulations. A chip's caches and UMON monitors draw their tag, stamp,
// state-mask, directory and shadow-stack arrays from here, and a chip that
// is released (chip.Release) hands them back, so a process that runs one
// simulation after another — a delta-served worker draining a campaign —
// stops allocating a whole chip per job.
//
// The free list is keyed by element type and slab length, one sync.Pool per
// length. The garbage collector trims the pools, so an idle process retains
// nothing for long and no size limit needs configuring. Arrays handed out
// are always zeroed, whether fresh or reused, so a recycled chip is
// byte-identical to a freshly allocated one.
//
// The contract is exclusive ownership: whoever Puts an array gives it up
// and must drop every reference to it, views included. Releasing one array
// twice would hand it to two owners.
package slab

import "sync"

// Words returns a zeroed []uint64 of length n, reusing a released one of
// that length when the free list holds one.
func Words(n int) []uint64 { return words.get(n) }

// PutWords hands a slice obtained from Words back for reuse. The caller
// must not touch it afterwards.
func PutWords(s []uint64) { words.put(s) }

// Shorts returns a zeroed []int16 of length n, reusing a released one of
// that length when the free list holds one.
func Shorts(n int) []int16 { return shorts.get(n) }

// PutShorts hands a slice obtained from Shorts back for reuse. The caller
// must not touch it afterwards.
func PutShorts(s []int16) { shorts.put(s) }

var (
	words  = freeList[uint64]{pools: make(map[int]*sync.Pool)}
	shorts = freeList[int16]{pools: make(map[int]*sync.Pool)}
)

// freeList holds released slices of one element type, one pool per length.
// A pool holds a pointer to each slice, since sync.Pool wants pointer-like
// values.
type freeList[T uint64 | int16] struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool
}

func (f *freeList[T]) pool(n int) *sync.Pool {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.pools[n]
	if p == nil {
		p = new(sync.Pool)
		f.pools[n] = p
	}
	return p
}

func (f *freeList[T]) get(n int) []T {
	if n > 0 {
		if v := f.pool(n).Get(); v != nil {
			s := *v.(*[]T)
			clear(s)
			return s
		}
	}
	return make([]T, n)
}

func (f *freeList[T]) put(s []T) {
	if len(s) > 0 {
		held := s // moved to the heap only here, not for empty puts
		f.pool(len(s)).Put(&held)
	}
}

package slab

import (
	"runtime"
	"sync"
	"testing"
)

// TestReusedSlabsAreZeroed: a released slice comes back zeroed and at its
// length, and only to a request for that length. The race detector's pools
// drop puts at random, so the test repeats until a reuse is seen.
func TestReusedSlabsAreZeroed(t *testing.T) {
	reused := 0
	for i := 0; i < 20; i++ {
		w, s := Words(1000), Shorts(1000)
		for j := range w {
			w[j], s[j] = ^uint64(0), -1
		}
		PutWords(w)
		PutShorts(s)
		if other := Words(999); len(other) != 999 || &other[0] == &w[0] {
			t.Fatal("a request for another length got the released slab")
		}
		gw, gs := Words(1000), Shorts(1000)
		if len(gw) != 1000 || len(gs) != 1000 {
			t.Fatalf("lengths %d and %d, want 1000", len(gw), len(gs))
		}
		for j := range gw {
			if gw[j] != 0 || gs[j] != 0 {
				t.Fatalf("element %d not zeroed: %d, %d", j, gw[j], gs[j])
			}
		}
		if &gw[0] == &w[0] && &gs[0] == &s[0] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("the free list never handed a released slab back")
	}
}

func TestPutEmptyIsNoOp(t *testing.T) {
	PutWords(nil)
	PutShorts([]int16{})
	if len(Words(0)) != 0 || len(Shorts(0)) != 0 {
		t.Fatal("zero-length request returned elements")
	}
}

// TestConcurrentOwnersNeverShare: goroutines drawing, writing and
// releasing slices of one length at once never see another's writes, so
// no slice has two owners. Run with -race.
func TestConcurrentOwnersNeverShare(t *testing.T) {
	const workers, rounds, n = 4, 200, 512
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := Words(n)
				for i := range s {
					if s[i] != 0 {
						errs <- "drew a slice that was not zeroed"
						return
					}
					s[i] = id
				}
				runtime.Gosched()
				for i := range s {
					if s[i] != id {
						errs <- "another owner wrote into a drawn slice"
						return
					}
				}
				PutWords(s)
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

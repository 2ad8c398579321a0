// Package reuse passes a run's big arrays on to the next run in the same
// process. Every number the simulator reports comes from many seeded runs in
// one process — sweep repetitions, the scaling experiment's rungs, a service
// worker's jobs — and each run lays out O(n) arrays: node streams, link rows,
// the kernel's run lane. A Pool keeps the arrays a finished run gives back,
// by size class, for the next run that asks for one at least as long.
//
// Ownership is the whole contract. An array belongs to whoever took it until
// that owner puts it back, and after that to the pool: the owner keeps no
// reference, so a put array is never read or written again through it. Only
// a run that ended normally puts anything back; a run that failed or
// panicked drops its arrays for the collector, so nothing it may have left
// half-written reaches a later run. The owners, and until when they own:
//
//   - a network its node table, streams and completion times, its store the
//     rows, columns and slot pages, and its kernel the run lane, the heap
//     and the slice and pages its opening burst was staged in — from
//     construction until network.Network.Release, which runNetwork calls
//     once the report is harvested (the staging arrays stay with the kernel
//     after the first pop has copied them out, since the run is not over);
//   - an election ring its node slab and its token table, until runNetwork
//     recycles the ring, after the network's release;
//   - a graph its CSR arrays, until topology.Graph.HandOn, which only
//     runner.Run calls: for the graph it built from Env.N, once the run on
//     it has returned. A graph the caller built is never handed on.
//
// A token table is the one array handed on that something may still point
// into — a finished run's caller can hold a token — and no entry of one is
// written after the table is made, so such a pointer keeps its value.
//
// A pool holds what it is given for one collection at most: an array put
// back before a collection and still unused when the next one completes is
// dropped, as a sync.Pool drops it, so a process that stops running
// simulations gets its memory back. Nothing here allocates per array: a
// class lists its arrays by value, in storage that survives draining and
// ageing, so once a process has run a shape, neither taking nor putting back
// allocates — which a sync.Pool could not promise: it lays out a table per
// processor again on its first use after every collection, and boxes what it
// holds. Drain empties every pool at once, for a test that must read a
// process's first run of a shape.
package reuse

import (
	"math/bits"
	"runtime"
	"sync"
)

// Pool holds arrays of T that runs have given back. Class k holds arrays
// whose capacity lies in [2ᵏ, 2ᵏ⁺¹), so Get(n) looks in the class of n, where
// an array may still be too short, and in the one above, where none is.
// Arrays put since the last collection are fresh, the others aged; the next
// collection drops the aged ones and ages the fresh.
type Pool[T any] struct {
	clears bool

	mu          sync.Mutex
	fresh, aged *shelf[T]
	shelves     [2]shelf[T]
}

// shelf is one generation of a pool's arrays, by class. A class keeps its
// first two arrays inline, so a run that puts back at most two arrays of a
// class grows no list even the first time.
type shelf[T any] [bits.UintSize]class[T]

type class[T any] struct {
	list   [][]T
	inline [2][]T
}

// New returns an empty pool. clears is for a T that holds pointers: Put then
// zeroes an array before it keeps it, so that a pooled array keeps no dead
// protocol object alive, and every array Get hands out is zero.
func New[T any](clears bool) *Pool[T] {
	p := &Pool[T]{clears: clears}
	p.fresh, p.aged = &p.shelves[0], &p.shelves[1]
	for s := range p.shelves {
		for c := range p.shelves[s] {
			cl := &p.shelves[s][c]
			cl.list = cl.inline[:0]
		}
	}
	registry.Lock()
	registry.pools = append(registry.pools, p)
	registry.Unlock()
	return p
}

// Get returns an array of length n: a pooled one if one is long enough, else
// a new one. A pooled array holds what its last owner left in it (unless
// the pool clears), so Get is for an owner that writes every element before
// it reads it; GetZeroed is for the rest.
func (p *Pool[T]) Get(n int) []T {
	if s := p.Reuse(n); s != nil {
		return s
	}
	return make([]T, n)
}

// GetZeroed returns a zero array of length n: a new one, or a pooled one
// cleared.
func (p *Pool[T]) GetZeroed(n int) []T {
	s := p.Reuse(n)
	if s == nil {
		return make([]T, n)
	}
	if !p.clears {
		clear(s)
	}
	return s
}

// Reuse returns a pooled array of length n, as Get does, or nil when the pool
// holds none long enough: for an owner that grows its array itself when
// nothing is pooled. Fresh arrays go first, and a shorter class before a
// longer one.
func (p *Pool[T]) Reuse(n int) []T {
	if n <= 0 {
		return nil
	}
	k := bits.Len(uint(n)) - 1
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sh := range [...]*shelf[T]{p.fresh, p.aged} {
		for c := k; c <= k+1 && c < len(sh); c++ {
			if s := sh[c].take(n); s != nil {
				return s[:n]
			}
		}
	}
	return nil
}

// take removes and returns the last array of c that holds n elements, or nil.
func (c *class[T]) take(n int) []T {
	for i := len(c.list) - 1; i >= 0; i-- {
		if s := c.list[i]; cap(s) >= n {
			last := len(c.list) - 1
			c.list[i] = c.list[last]
			c.list[last] = nil
			c.list = c.list[:last]
			return s
		}
	}
	return nil
}

// Put gives s to the pool. The caller must hold no reference into it
// afterwards. An array of capacity 0 is dropped.
func (p *Pool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	if p.clears {
		clear(s)
	}
	c := bits.Len(uint(cap(s))) - 1
	p.mu.Lock()
	p.fresh[c].list = append(p.fresh[c].list, s)
	p.mu.Unlock()
}

// age drops the aged arrays and ages the fresh ones.
func (p *Pool[T]) age() {
	p.mu.Lock()
	p.aged.drop()
	p.fresh, p.aged = p.aged, p.fresh
	p.mu.Unlock()
}

// drain drops every array.
func (p *Pool[T]) drain() {
	p.mu.Lock()
	p.fresh.drop()
	p.aged.drop()
	p.mu.Unlock()
}

// drop empties every class of sh, keeping the lists' storage.
func (sh *shelf[T]) drop() {
	for c := range sh {
		clear(sh[c].list)
		sh[c].list = sh[c].list[:0]
	}
}

// registry lists every pool, for ageing and Drain.
var registry struct {
	sync.Mutex
	pools []interface {
		age()
		drain()
	}
}

// Drain drops every pooled array of every pool, so that the next run of any
// shape allocates its arrays afresh: what two collections do, without
// waiting for them.
func Drain() {
	registry.Lock()
	defer registry.Unlock()
	for _, p := range registry.pools {
		p.drain()
	}
}

// sentinel is an object nothing references but its finalizer, which ages
// every pool and sets itself again: each collection that finds the sentinel
// unreachable ages the pools once, and neither the finalizer nor setting it
// again allocates, so a run measured with the collector on sees nothing of
// it. It holds a pointer, so that it is never one of the tiny objects the
// allocator packs together, which may outlive their collection.
type sentinel struct{ _ *byte }

func init() { runtime.SetFinalizer(new(sentinel), ageAll) }

// ageAll ages every pool, and watches for the next collection.
func ageAll(s *sentinel) {
	registry.Lock()
	for _, p := range registry.pools {
		p.age()
	}
	registry.Unlock()
	runtime.SetFinalizer(s, ageAll)
}

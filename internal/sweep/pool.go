package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map evaluates fn(0) … fn(n−1) on at most parallelism concurrent workers
// and returns the results in index order. parallelism ≤ 0 selects
// GOMAXPROCS. fn must be safe to call concurrently for distinct indices;
// the pool size affects only wall-clock time, never the returned slice.
func Map[T any](n, parallelism int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	out := make([]T, n)
	if parallelism == 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	// Work-stealing counter: workers pull the next free index, so uneven
	// replica costs (e.g. experiments sweeping network sizes) still load
	// all workers. Each worker writes only out[i] for indices it claimed.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

package main

import (
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host the benchmark runs on changes speed under it: over one afternoon
// on a shared 2-vCPU host, the same workload and seed ran at anything from
// 0.6 to 1.3 simulated units per second, in drifts lasting minutes that
// neither the stolen-time counters nor the run's own timings explain. So
// the simulator's throughput is reported relative to a fixed reference
// kernel timed between its slices, a dependent pointer chase through one
// random cycle over a buffer about the size of the 10⁵ ring's working set
// (47 MB), on as many goroutines as the simulator has shards. Over eight
// runs of that ring during such a drift the raw throughput spread 0.30 of
// its median and the ratio 0.09; over six runs of the geometric workload
// 0.26 and 0.19.

// probeEveryMs is the RunFor time, in milliseconds, between two probes.
const probeEveryMs = 250

// probeBytes is the pointer-chase buffer.
const probeBytes = 48 << 20

// probeSteps is the chase length per goroutine of one probe: 5 to 15 ms.
const probeSteps = 50000

// probeRef is the probe rate, in steps per second, that the throughput is
// scaled to: about the probe's rate on the host the benchmark was written
// on. It fixes the scale of the figure, not its spread.
const probeRef = 8e6

// hostProbe times the reference kernel. Its buffer is mapped outside the Go
// heap so it does not count towards the heap figures.
type hostProbe struct {
	mem   []byte
	next  []uint32
	rates []float64 // steps per second, one per probe
	pos   [shards]uint32
}

func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map probe buffer: %w", err)
	}
	p := &hostProbe{mem: mem, next: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeBytes/4)}
	// Sattolo's shuffle: a single cycle through every slot, the same on
	// every run.
	n := len(p.next)
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	for s := range p.pos {
		p.pos[s] = uint32(s * n / shards)
	}
	return p, nil
}

// run times one probe and records its rate.
func (p *hostProbe) run() {
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := range p.pos {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			x := p.pos[s]
			for i := 0; i < probeSteps; i++ {
				x = p.next[x]
			}
			p.pos[s] = x
		}(s)
	}
	wg.Wait()
	p.rates = append(p.rates, float64(shards*probeSteps)/time.Since(t0).Seconds())
}

// rate is the median probe rate.
func (p *hostProbe) rate() float64 { return median(p.rates) }

func (p *hostProbe) close() error { return syscall.Munmap(p.mem) }

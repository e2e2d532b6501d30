package main

import (
	"container/heap"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The host the benchmark runs on is a shared virtual machine whose speed
// drifts by up to 2× over minutes, as other tenants contend for the
// physical cores' caches and branch predictors: every timing in a run
// moves with it, and medians inside a run cannot remove a slow period that
// outlasts the run. The host-time end-to-end metrics (sim_cycles_per_s,
// setup_s, hit_ms_p50) are therefore reported at a reference host speed:
// scaled by the host's slowness, which a fixed benchmark-owned reference
// kernel measures between the timed jobs.
//
// The kernel sorts integers (a 30k-element set in L2, a 300k-element one
// spilling out of it) and runs a binary heap of pointers: branchy,
// cache-bound code like the simulator's. Over 35-second windows its median
// time tracked the FR6 and VC8 job times with correlation 0.9 and 0.97,
// and dividing by it cut their window-to-window variation from 8% to 4% and
// 2%. The campaign runs it on both of the service's workers at once, as
// its cold phase simulates on both CPUs. It allocates nothing while timed,
// so the program's heap cannot move it, and it calls nothing of the
// program, so a change to the program moves the reported metrics by
// exactly its own effect.

// hostRefNominal is the reference kernel's time at the reference speed:
// close to its median on the host the benchmark was defined on (a 2-CPU
// Intel Xeon VM at 2.1 GHz, go1.24). It only fixes the scale of the
// reported metrics; it does not need to match any other host.
const hostRefNominal = 0.070 // seconds

// refShare is the share of a run's time the reference kernel takes.
const refShare = 0.10

// hostRef records the reference kernel's samples over a run.
type hostRef struct {
	width        int // goroutines the kernel runs on at once: the workload's simulation workers
	start        time.Time
	spent        time.Duration // time in timed passes of the kernel
	samples      []float64
	sampledSince int // samples taken before this index belong to the warm-up round
	sink         int
}

func newHostRef(width int) *hostRef { return &hostRef{width: width, start: time.Now()} }

// keepUp samples the reference kernel until it has taken refShare of the
// time since the run started (at least once), so that its samples spread
// over the run in proportion to the measured work between them.
func (ref *hostRef) keepUp() {
	for len(ref.samples) == 0 || ref.spent.Seconds() < refShare*time.Since(ref.start).Seconds() {
		ref.sample()
	}
}

type refItem struct{ pri, idx int }

// refHeap is a min-heap of item pointers for container/heap.
type refHeap []*refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].pri < h[j].pri }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any {
	o := *h
	x := o[len(o)-1]
	*h = o[:len(o)-1]
	return x
}

const (
	refSmall     = 30_000
	refSmallReps = 6
	refBig       = 300_000
	refHeapItems = 75_000
)

// refInput is one copy of the reference kernel's inputs and buffers.
type refInput struct {
	small, big, buf []int
	items           []refItem
	h               refHeap
}

func newRefInput() *refInput {
	r := rand.New(rand.NewSource(1))
	in := &refInput{
		small: make([]int, refSmall),
		big:   make([]int, refBig),
		buf:   make([]int, refBig),
		items: make([]refItem, refHeapItems),
		h:     make(refHeap, 0, refHeapItems),
	}
	for i := range in.small {
		in.small[i] = r.Int()
	}
	for i := range in.big {
		in.big[i] = r.Int()
	}
	for i := range in.items {
		in.items[i] = refItem{pri: r.Intn(1 << 20), idx: i}
	}
	return in
}

// run is one pass of the kernel; it allocates nothing.
func (in *refInput) run() (sink int) {
	for k := 0; k < refSmallReps; k++ {
		b := in.buf[:refSmall]
		copy(b, in.small)
		slices.Sort(b)
		sink += b[0]
	}
	copy(in.buf, in.big)
	slices.Sort(in.buf)
	sink += in.buf[0]
	for i := range in.items {
		heap.Push(&in.h, &in.items[i])
		if i%3 == 2 {
			sink += heap.Pop(&in.h).(*refItem).idx
		}
	}
	return sink
}

// sample times one pass of the reference kernel on each of the run's width
// goroutines at once and records the pass's wall time. The inputs are
// made, and the heap collected, before the clock starts; the pass itself
// allocates nothing, and its buffers are garbage after it, so the
// program's heap size and GC pacing are the same with and without it.
func (ref *hostRef) sample() {
	ins := make([]*refInput, ref.width)
	for i := range ins {
		ins[i] = newRefInput()
	}
	sinks := make([]int, ref.width)
	runtime.GC()

	t := time.Now()
	var wg sync.WaitGroup
	for i, in := range ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sinks[i] = in.run()
		}()
	}
	wg.Wait()
	d := time.Since(t)
	ref.spent += d
	ref.samples = append(ref.samples, d.Seconds())
	for _, x := range sinks {
		ref.sink += x
	}
}

// warmedUp marks the samples taken so far as warm-up, not to be used.
func (ref *hostRef) warmedUp() { ref.sampledSince = len(ref.samples) }

// report sets the run's host-time end-to-end metrics at the reference
// speed, sim_cycles_per_s from a rate and setup_s and hit_ms_p50 from
// times measured over the run, and prints them unscaled with the slowness.
func (ref *hostRef) report(w io.Writer, o *outcome, rate, setup, hit float64) {
	slow := ref.slowness()
	fmt.Fprintf(w, "host slowness %.4f (reference kernel median / %.3f s over %d samples); unscaled sim_cycles_per_s %.6g setup_s %.6g hit_ms_p50 %.6g\n",
		slow, hostRefNominal, len(ref.used()), rate, setup, hit)
	o.set("sim_cycles_per_s", rate*slow)
	o.set("setup_s", setup/slow)
	o.set("hit_ms_p50", hit/slow)
}

// used is the samples the slowness is taken from: those after the
// warm-up, or all of them when nothing followed it.
func (ref *hostRef) used() []float64 {
	if s := ref.samples[ref.sampledSince:]; len(s) > 0 {
		return s
	}
	return ref.samples
}

// slowness is the host's slowness over the run relative to the reference
// speed: the median of the used samples over hostRefNominal. A rate
// measured over the same stretch times it is the rate at the reference
// speed.
func (ref *hostRef) slowness() float64 { return median(ref.used()) / hostRefNominal }

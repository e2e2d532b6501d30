package core

import (
	"fmt"

	"frfc/internal/sim"
)

// outResTable is the output reservation table of Figure 4: for every cycle in
// the window [base, base+size) it records whether the output channel is
// reserved (busy) and how many buffers will be free at the downstream input
// pool. The window slides forward with time, with circular reuse as cycles
// expire; steady holds the free-buffer count at and beyond the window's end,
// so newly revealed cells inherit the net effect of every reservation and
// credit seen so far.
//
// The storage is the hardware table's: exactly Horizon+1 cells in a ring.
// head is the physical cell of cycle base, so cycle c lives at head+(c-base)
// with one conditional wrap. A cell stores its free count relative to steady
// (free = steady + rel), so a reservation or credit, which moves the free
// count of every cycle from some cycle k to the end and steady with them,
// rewrites only the cells before k: at most two contiguous spans of the ring.
//
// Reservations decrement the free count from the flit's downstream arrival
// (t_d + t_p) through the horizon; credits from the downstream node increment
// it from the announced departure cycle onward. A reservation whose arrival
// lands past the window's end is carried in the future list and applied as
// the window reveals those cycles.
type outResTable struct {
	size   int // Horizon+1 cells: departures reservable in [now+1, now+Horizon]
	base   sim.Cycle
	head   int // physical cell of cycle base
	cells  []resCell
	cap    int // downstream pool capacity, for overflow checks
	steady int
	// infinite marks the ejection channel, whose downstream (reassembly
	// buffers) never fills; only the busy bits are meaningful.
	infinite bool

	// outstanding[v] counts downstream buffer residencies attributed to
	// control VC v of this link: incremented per committed reservation,
	// decremented per returned credit. The reservation rule leaves one
	// buffer free for every *other* VC with no outstanding residency, so
	// a packet holding a control VC can always eventually land its next
	// flit downstream — without this, the shared pool and the wormhole
	// control channels form the deadlock cycle Section 5 of the paper
	// warns about (dependencies "in both directions between control
	// flits ... and data flits that share a single buffer pool").
	outstanding []int

	// claims[v] counts downstream buffers set aside for the
	// still-unscheduled leads of control VC v's mid-schedule control
	// flit. Under per-flit scheduling with d > 1, a control flit whose
	// early leads are committed lets their data flits race ahead and
	// park downstream; those flits can only be drained by this very
	// control flit, so it must be guaranteed to finish. A control flit
	// is therefore admitted — all of its leads claimed at once — before
	// its first commit, and every other VC's searches leave the claimed
	// buffers alone. Claims release one by one as the leads commit.
	claims []int

	// future holds at-infinity deltas already folded into steady whose
	// effect must be excluded from cells revealed before their cycle.
	future []futureDelta
}

// resCell is one cycle of an output reservation table. rel is the cycle's
// free-buffer count minus steady; min and max are the extremes of rel over
// this cycle and every later one in the window, so a departure search checks
// a candidate's downstream availability, and an update its bounds, in O(1).
// Free counts lie in [0, DataBuffers], so 16 bits hold them
// (Config.validate bounds DataBuffers).
type resCell struct {
	rel, min, max int16
	busy          bool
}

type futureDelta struct {
	at    sim.Cycle
	delta int
}

func newOutResTable(horizon sim.Cycle, buffers, ctrlVCs int, infinite bool) *outResTable {
	size := int(horizon) + 1
	vcs := make([]int, 2*ctrlVCs)
	return &outResTable{
		size:        size,
		cells:       make([]resCell, size),
		cap:         buffers,
		steady:      buffers,
		infinite:    infinite,
		outstanding: vcs[:ctrlVCs:ctrlVCs],
		claims:      vcs[ctrlVCs:],
	}
}

// cell returns the physical index of window offset off (0 <= off < size).
func (t *outResTable) cell(off int) int {
	i := t.head + off
	if i >= t.size {
		i -= t.size
	}
	return i
}

// idx returns the physical cell of cycle c, which must lie in the window.
func (t *outResTable) idx(c sim.Cycle) int { return t.cell(int(c - t.base)) }

// inWindow reports whether cycle c has a cell.
func (t *outResTable) inWindow(c sim.Cycle) bool { return c >= t.base && c < t.end() }

// end returns one past the last cycle in the window.
func (t *outResTable) end() sim.Cycle { return t.base + sim.Cycle(t.size) }

// advance slides the window so it starts at now, recycling expired cells.
func (t *outResTable) advance(now sim.Cycle) {
	if now < t.base {
		panic("core: reservation table advanced backwards")
	}
	if now-t.base >= sim.Cycle(t.size) {
		// The whole window expired (only possible in tests that jump
		// time); reset every cell.
		t.base, t.head = now, 0
		for i := range t.cells {
			t.cells[i] = resCell{rel: int16(t.revealValue(now+sim.Cycle(i)) - t.steady)}
		}
		last := t.cells[t.size-1].rel
		sweep(t.cells, 0, last, last)
		t.pruneFuture()
		return
	}
	for t.base < now {
		// The cell for cycle t.base expires and is recycled as the
		// cell for cycle t.base+size.
		i := t.head
		rel := int16(t.revealValue(t.base+sim.Cycle(t.size)) - t.steady)
		t.cells[i] = resCell{rel: rel, min: rel, max: rel}
		t.head++
		if t.head == t.size {
			t.head = 0
		}
		t.base++
		// The earlier cells' extremes already cover rel when the
		// neighbor's do — the common case.
		if p := &t.cells[t.cell(t.size-2)]; p.min > rel || p.max < rel {
			t.relax()
		}
	}
	t.pruneFuture()
}

// relax brings the suffix extremes of the earlier cells up to date with a
// newly revealed last cell. It walks backward and stops at the first cell
// whose extremes come out unchanged: no earlier rel changed, so every
// earlier cell's extremes are unchanged too.
func (t *outResTable) relax() {
	c := &t.cells[t.cell(t.size-1)]
	lo, hi := c.min, c.max
	for off := t.size - 2; off >= 0; off-- {
		c := &t.cells[t.cell(off)]
		lo, hi = min(lo, c.rel), max(hi, c.rel)
		if c.min == lo && c.max == hi {
			return
		}
		c.min, c.max = lo, hi
	}
}

// revealValue computes the free count for a newly revealed cell at cycle c:
// steady, excluding future events that take effect only after c.
func (t *outResTable) revealValue(c sim.Cycle) int {
	v := t.steady
	for _, f := range t.future {
		if f.at > c {
			v -= f.delta
		}
	}
	return v
}

func (t *outResTable) pruneFuture() {
	n := 0
	for _, f := range t.future {
		// Keep events that can still affect cells revealed later;
		// the next cell to be revealed is at cycle end().
		if f.at > t.end() {
			t.future[n] = f
			n++
		}
	}
	t.future = t.future[:n]
}

// findDeparture returns the earliest departure cycle t_d in
// [max(ta, now+1), now+Horizon] at which the channel is unreserved and, for
// every cycle from t_d+tp through the horizon, at least one downstream buffer
// is free (the availability rule of Section 3). ok is false when no such
// cycle exists within the horizon — the control flit must stall and retry.
//
// t_d may equal ta: a flit whose departure is reserved for its own arrival
// cycle bypasses the router entirely, completing the hop in exactly the link
// propagation time — the zero-residency fast path that gives flit reservation
// its lower base latency (Section 3's bypass). A flit that has already
// arrived (ta < now) can depart no earlier than the next cycle.
//
// vc is the control VC (of this link) on whose behalf the reservation is
// made; the search demands `1 + reserve(vc)` free buffers rather than 1, so
// that every other currently-idle control VC keeps a buffer available (the
// deadlock-avoidance rule described on the outstanding field).
func (t *outResTable) findDeparture(now, ta, tp sim.Cycle, vc int) (td sim.Cycle, ok bool) {
	if t.base != now {
		panic("core: findDeparture called before advancing the table")
	}
	start := ta
	if start < now+1 {
		start = now + 1
	}
	if start >= t.end() {
		return 0, false
	}
	off := int(start - t.base)
	i := t.cell(off)
	if t.infinite {
		for ; off < t.size; off++ {
			if !t.cells[i].busy {
				return t.base + sim.Cycle(off), true
			}
			if i++; i == t.size {
				i = 0
			}
		}
		return 0, false
	}
	need := 1 + t.reserve(vc)
	if t.steady < need {
		return 0, false
	}
	// A candidate departing at off needs need free buffers at every cycle
	// from its downstream arrival at off+lag on: steady plus that cell's
	// suffix minimum. An arrival beyond the window needs steady alone,
	// checked above.
	low := int16(need - t.steady)
	lag := int(tp)
	for ; off < t.size; off++ {
		if !t.cells[i].busy && (off+lag >= t.size || t.cells[t.cell(off+lag)].min >= low) {
			return t.base + sim.Cycle(off), true
		}
		if i++; i == t.size {
			i = 0
		}
	}
	return 0, false
}

// reserve reports how many downstream buffers must be left untouched by a
// reservation on behalf of control VC vc: every other VC's claimed buffers,
// plus one per other VC that has neither residents nor claims downstream (so
// a future head always finds a first buffer).
func (t *outResTable) reserve(vc int) int {
	r := 0
	for w := range t.outstanding {
		if w == vc {
			continue
		}
		switch {
		case t.claims[w] > 0:
			r += t.claims[w]
		case t.outstanding[w] == 0:
			r++
		}
	}
	return r
}

// admit sets aside k downstream buffers for a control flit on VC vc before
// its first per-flit commit, so that once any of its leads is committed the
// rest are guaranteed to fit eventually. It reports false (claiming nothing)
// when the steady-state free count cannot cover the claim on top of every
// other VC's protections.
func (t *outResTable) admit(vc, k int) bool {
	if t.infinite {
		return true
	}
	if t.steady < k+t.reserve(vc) {
		return false
	}
	t.claims[vc] += k
	return true
}

// releaseClaim converts one of VC vc's admitted claims into a real
// reservation; the caller pairs it with commit.
func (t *outResTable) releaseClaim(vc int) {
	if t.infinite {
		return
	}
	t.claims[vc]--
	if t.claims[vc] < 0 {
		panic("core: claim released without admission")
	}
}

// shift adds delta to steady and to the free count of every cycle from
// `from` (clamped to the window) to the window's end. Relative to steady
// those cycles stand still, so only the cells before from move, by -delta.
// A commit (delta < 0) must leave no cell's free count negative and a credit
// (delta > 0) none above cap; the updated suffix extremes check that for
// the whole range at once.
func (t *outResTable) shift(from sim.Cycle, delta int) {
	t.steady += delta
	k := t.size
	if from < t.end() {
		k = 0
		if from > t.base {
			k = int(from - t.base)
		}
	}
	d := int16(-delta)
	var lo, hi int16
	if k < t.size {
		c := &t.cells[t.cell(k)]
		lo, hi = c.min, c.max
		if delta < 0 && t.steady+int(lo) < 0 {
			panic("core: downstream free-buffer count went negative")
		}
		if delta > 0 && t.steady+int(hi) > t.cap {
			panic("core: free-buffer cell exceeded downstream capacity")
		}
	} else if k > 0 {
		c := &t.cells[t.cell(k-1)]
		lo, hi = c.rel+d, c.rel+d
	}
	// The prefix is physical cells [head, head+k), wrapping past the ring's
	// end; walk it backward, the wrapped part first.
	end := t.head + k
	if end > t.size {
		lo, hi = sweep(t.cells[:end-t.size], d, lo, hi)
		end = t.size
	}
	sweep(t.cells[t.head:end], d, lo, hi)
}

// sweep adds d to the rel of every cell in cs, last to first, and rebuilds
// their suffix extremes from lo and hi, the extremes of the cells after
// them; it returns the extremes of cs[0].
func sweep(cs []resCell, d, lo, hi int16) (int16, int16) {
	for i := len(cs) - 1; i >= 0; i-- {
		c := &cs[i]
		c.rel += d
		lo = min(lo, c.rel)
		hi = max(hi, c.rel)
		c.min, c.max = lo, hi
	}
	return lo, hi
}

// commit reserves the channel at td and one downstream buffer (attributed to
// control VC vc) from td+tp onward. The caller must have obtained td from
// findDeparture in the same cycle (no intervening commits invalidate it only
// if re-checked; the router always pairs find+commit).
func (t *outResTable) commit(td, tp sim.Cycle, vc int) {
	if !t.inWindow(td) {
		panic(fmt.Sprintf("core: departure %d outside window [%d,%d)", td, t.base, t.end()))
	}
	c := &t.cells[t.idx(td)]
	if c.busy {
		panic("core: committing a departure on a busy channel cycle")
	}
	c.busy = true
	if t.infinite {
		return
	}
	t.outstanding[vc]++
	arr := td + tp
	t.shift(arr, -1)
	if arr >= t.end() {
		// The decrement is folded into steady; cells revealed before
		// arr must not see it.
		t.future = append(t.future, futureDelta{at: arr, delta: -1})
	}
}

// uncommit rolls back a commit made earlier in the same cycle, used by
// all-or-nothing scheduling when a later flit of the same control flit fails.
func (t *outResTable) uncommit(td, tp sim.Cycle, vc int) {
	if !t.inWindow(td) || !t.cells[t.idx(td)].busy {
		panic("core: uncommit of a non-busy channel cycle")
	}
	t.cells[t.idx(td)].busy = false
	if t.infinite {
		return
	}
	t.outstanding[vc]--
	if t.outstanding[vc] < 0 {
		panic("core: outstanding residency count went negative on uncommit")
	}
	arr := td + tp
	if arr >= t.end() && !t.dropFuture(arr) {
		panic("core: uncommit found no matching future delta")
	}
	t.shift(arr, +1)
}

// dropFuture removes the latest future debit at cycle at, reporting whether
// there was one.
func (t *outResTable) dropFuture(at sim.Cycle) bool {
	for j := len(t.future) - 1; j >= 0; j-- {
		if t.future[j] == (futureDelta{at: at, delta: -1}) {
			t.future = append(t.future[:j], t.future[j+1:]...)
			return true
		}
	}
	return false
}

// creditFrom processes a downstream credit: one more buffer is free from
// cycle `from` onward, ending a residency attributed to control VC vc.
//
// A departure credit's release cycle falls inside the window: the
// downstream scheduler picked it within its own horizon of equal length, and
// the credit wire adds at least one cycle, so from <= (now-1) + Horizon <
// end. The one credit that may not is a discarded lead's
// (Router.discardCtrl): it releases the residency from the arrival cycle
// this table announced, and a data link slower than the control link can
// put that at or past end. Its debit is then still a future delta (from >
// end) or was folded into steady as its cycle came into reach (from ==
// end), so the credit cancels an empty residency: the future delta is
// dropped when there is one, and the shift below does the rest. Any other
// beyond-window credit would let cells revealed before `from` dip below the
// searched minimum, so it panics.
func (t *outResTable) creditFrom(from sim.Cycle, vc int) {
	if t.infinite {
		return
	}
	if from >= t.end() && !t.dropFuture(from) && from > t.end() {
		panic(fmt.Sprintf("core: credit release cycle %d beyond window end %d — horizons out of sync", from, t.end()))
	}
	t.outstanding[vc]--
	if t.outstanding[vc] < 0 {
		panic("core: outstanding residency count went negative on credit")
	}
	if t.steady+1 > t.cap {
		panic("core: free-buffer count exceeded downstream capacity")
	}
	t.shift(from, +1)
}

// freeAt reports the free-buffer count recorded for cycle c (tests only).
func (t *outResTable) freeAt(c sim.Cycle) int {
	if !t.inWindow(c) {
		panic("core: freeAt outside window")
	}
	return t.steady + int(t.cells[t.idx(c)].rel)
}

// busyAt reports whether the channel is reserved at cycle c (tests only).
func (t *outResTable) busyAt(c sim.Cycle) bool {
	if !t.inWindow(c) {
		panic("core: busyAt outside window")
	}
	return t.cells[t.idx(c)].busy
}

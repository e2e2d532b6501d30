package core

import (
	"fmt"

	"frfc/internal/noc"
	"frfc/internal/sim"
)

// cycleRing is a per-cycle schedule stored the way hardware stores one: a
// ring of cells indexed by cycle, sized to the furthest cycle an entry can be
// scheduled ahead of the one that consumes it. Each cell is tagged with the
// cycle it holds (sim.Never when empty), so an entry scheduled beyond the
// span — or one that outlived its cycle — is caught as a collision rather
// than silently aliased.
type cycleRing[T any] struct {
	cells []ringCell[T]
	n     int
}

type ringCell[T any] struct {
	at sim.Cycle
	v  T
}

func newCycleRing[T any](span int) cycleRing[T] {
	r := cycleRing[T]{cells: make([]ringCell[T], span)}
	r.reset()
	return r
}

func (r *cycleRing[T]) cell(at sim.Cycle) *ringCell[T] {
	return &r.cells[uint64(at)%uint64(len(r.cells))]
}

// put schedules v at cycle at; a second entry for the same cycle panics with
// dup.
func (r *cycleRing[T]) put(at sim.Cycle, v T, dup string) {
	c := r.cell(at)
	switch c.at {
	case sim.Never:
	case at:
		panic(dup)
	default:
		panic(fmt.Sprintf("core: schedule ring collision: cycle %d maps onto the live cell of cycle %d (span %d)", at, c.at, len(r.cells)))
	}
	c.at, c.v = at, v
	r.n++
}

// take removes and returns the entry scheduled at cycle at, if any.
func (r *cycleRing[T]) take(at sim.Cycle) (T, bool) {
	c := r.cell(at)
	var zero T
	if c.at != at {
		return zero, false
	}
	v := c.v
	c.at, c.v = sim.Never, zero
	r.n--
	return v, true
}

// len reports how many entries are scheduled.
func (r *cycleRing[T]) len() int { return r.n }

// reset empties the ring.
func (r *cycleRing[T]) reset() {
	for i := range r.cells {
		r.cells[i] = ringCell[T]{at: sim.Never}
	}
	r.n = 0
}

// flitRef names one data flit in a schedule ring: its packet, sequence
// number and transmission attempt, which is all a data flit carries.
type flitRef struct {
	pkt          *noc.Packet
	seq, attempt int32
}

// dataFlit rebuilds the data flit the reference names.
func (r flitRef) dataFlit() noc.DataFlit {
	seq := int(r.seq)
	return noc.DataFlit{Packet: r.pkt, Seq: seq, Attempt: int(r.attempt), Type: noc.TypeFor(seq, r.pkt.Len)}
}

// leadPool recycles the lead arrays control flits carry on the wire. A router
// copies a received flit's leads into its own per-VC state and hands the
// array back; the NIs and forwarding routers draw the arrays of the flits
// they send. One pool serves a whole network, which runs single-threaded;
// every array has room for LeadsPerCtrl entries. A nil pool recycles
// nothing.
type leadPool struct {
	width int
	free  [][]noc.LeadEntry
}

// get returns an empty lead array.
func (lp *leadPool) get() []noc.LeadEntry {
	if lp == nil {
		return nil
	}
	if k := len(lp.free); k > 0 {
		s := lp.free[k-1]
		lp.free[k-1] = nil
		lp.free = lp.free[:k-1]
		return s
	}
	return make([]noc.LeadEntry, 0, lp.width)
}

// put returns a lead array whose flit no longer needs it.
func (lp *leadPool) put(s []noc.LeadEntry) {
	if lp != nil && cap(s) >= lp.width {
		lp.free = append(lp.free, s[:0])
	}
}

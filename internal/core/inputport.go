package core

import (
	"fmt"
	"math"

	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// poolSlot is one buffer of an input port's data pool. A slot is bound to a
// concrete flit only at arrival time (deferred allocation); its departure
// time and output port come from the reservation. A parked slot — its flit
// arrived before its control flit finished scheduling — has departAt
// sim.Never and is found again by its arrival cycle.
//
// A data flit on the flit-reservation data path carries no virtual channel
// and its type follows from its position in the packet, so the slot keeps
// only what identifies the flit and whether its payload is damaged.
type poolSlot struct {
	ref       flitRef
	departAt  sim.Cycle // sim.Never while the flit is parked unscheduled
	arrived   sim.Cycle
	outPort   uint8 // a topology.Port
	occupied  bool
	corrupted bool
}

func (s *poolSlot) parked() bool { return s.occupied && s.departAt == sim.Never }

// flit rebuilds the buffered data flit.
func (s *poolSlot) flit() noc.DataFlit {
	f := s.ref.dataFlit()
	f.Corrupted = s.corrupted
	return f
}

// free empties the slot.
func (s *poolSlot) free() { *s = poolSlot{} }

// inCell is one cell of the input reservation table, a ring indexed by
// arrival cycle. at tags the arrival cycle the cell currently describes; the
// flags say what is known about it:
//
//   - cellExpected: a data flit will arrive at at and must leave wait cycles
//     later through out;
//   - cellPhantom: that reservation was installed by a corrupted control
//     flit that escaped the hop CRC. Its schedule is garbage the real
//     traffic must never act on: the arriving data flit is not claimed by
//     it — the flit parks until timeout reclamation collects it — and the
//     entry dissolves unclaimed through the ordinary expiry path;
//   - cellCondemned: the control stream that was to schedule the flit
//     arriving at at was destroyed by a hard fault, so the flit is dropped
//     on sight instead of parking forever on the schedule list.
type inCell struct {
	at    uint32 // the arrival cycle's low 32 bits
	wait  uint16 // departure minus arrival, at most Horizon
	out   uint8
	flags uint8
}

const (
	cellExpected uint8 = 1 << iota
	cellPhantom
	cellCondemned
)

// inputPort is the data-network side of one router input: the buffer pool,
// the input reservation table (expected arrivals), and the schedule list
// (flits that arrived before their control flit finished scheduling,
// Section 3). Data flits are identified solely by their arrival cycle; the
// one-flit-per-cycle channel makes that identification unambiguous.
type inputPort struct {
	pool     []poolSlot
	occupied int
	// ring is the input reservation table: one cell per arrival cycle
	// over the span a reservation can reach ahead of the current cycle
	// (Config.inputSpan), so every live entry has its own cell and a
	// cell whose tag names another live cycle is a scheduling bug.
	ring []inCell
	// expected counts ring cells holding a reservation.
	expected int
	// parked counts pool slots on the schedule list.
	parked int
	// parkedTotal counts every flit that ever passed through the
	// schedule list, a measure of how often data overtakes its control
	// flit.
	parkedTotal int64
	// phantoms counts reservations installed by corrupted control flits
	// that escaped the hop CRC — table state no real traffic ever claims.
	phantoms int64
	// reclaimed counts parked flits collected by timeout reclamation:
	// their control flit was corrupted, so nothing would ever have
	// scheduled them out of the pool.
	reclaimed int64

	dataIn    *sim.Pipe[noc.DataFlit]
	creditOut *sim.Pipe[noc.ReservationCredit]

	ledger *eagerLedger // non-nil when counting hypothetical eager-allocation transfers

	// probe, with the port's identity, reports late reservations (flits
	// parked ahead of their control flit); nil when observability is off.
	probe     *metrics.Probe
	node      int
	portIndex int

	// faultTolerant permits a reservation for a past arrival with no
	// parked flit — the flit was destroyed upstream and its late control
	// flit doesn't know. Without fault injection that situation is a
	// scheduling bug and panics.
	faultTolerant bool
}

// newInputPort builds an input port with the given pool size and a
// reservation ring of span cells, which must exceed the furthest arrival a
// reservation or condemnation can name ahead of the current cycle.
func newInputPort(buffers, span int, ledger *eagerLedger, faultTolerant bool) *inputPort {
	return &inputPort{
		pool:          make([]poolSlot, buffers),
		ring:          make([]inCell, span),
		ledger:        ledger,
		faultTolerant: faultTolerant,
	}
}

// cell returns the live ring cell for arrival cycle ta, or nil.
func (p *inputPort) cell(ta sim.Cycle) *inCell {
	c := &p.ring[uint64(ta)%uint64(len(p.ring))]
	if c.flags == 0 || c.at != uint32(ta) {
		return nil
	}
	return c
}

// claim returns the ring cell for arrival cycle ta, tagging it when free.
// A cell still live for another cycle means ta lies beyond the ring's span
// (or a stale entry escaped its expiry) — a bug, never tolerated.
func (p *inputPort) claim(ta sim.Cycle) *inCell {
	c := &p.ring[uint64(ta)%uint64(len(p.ring))]
	if c.flags == 0 {
		c.at = uint32(ta)
	} else if c.at != uint32(ta) {
		panic(fmt.Sprintf("core: input reservation ring collision: arrival %d maps onto a cell live for another cycle (span %d)", ta, len(p.ring)))
	}
	return c
}

// expect records the reservation for arrival ta in its claimed cell.
func (p *inputPort) expect(c *inCell, ta, departAt sim.Cycle, outPort topology.Port, phantom bool) {
	if departAt < ta || departAt-ta > math.MaxUint16 {
		panic(fmt.Sprintf("core: reservation departs at %d for arrival %d", departAt, ta))
	}
	c.wait = uint16(departAt - ta)
	c.out = uint8(outPort)
	c.flags |= cellExpected
	if phantom {
		c.flags |= cellPhantom
	}
	p.expected++
}

// unexpect clears cell c's reservation, if any.
func (p *inputPort) unexpect(c *inCell) {
	if c.flags&cellExpected != 0 {
		p.expected--
	}
	c.flags &^= cellExpected | cellPhantom
}

// parkedSlot returns the pool slot holding the flit parked under arrival
// cycle ta, or -1.
func (p *inputPort) parkedSlot(ta sim.Cycle) int {
	if p.parked == 0 {
		return -1
	}
	for i := range p.pool {
		if s := &p.pool[i]; s.parked() && s.arrived == ta {
			return i
		}
	}
	return -1
}

// reserve records a reservation signal from the output scheduler: the data
// flit arriving at ta departs at departAt through outPort. If the flit has
// already arrived it is claimed from the schedule list; otherwise the input
// reservation table notes the expected arrival.
//
// phantom marks a reservation made by a corrupted control flit that escaped
// the hop CRC. Its announced schedule is garbage, so it must never capture
// real data: an already-parked flit stays parked (timeout reclamation
// collects it), and a future arrival gets a phantom table entry that
// dissolves unclaimed — the arriving flit parks beside it instead.
func (p *inputPort) reserve(now, ta, departAt sim.Cycle, outPort topology.Port, phantom bool) {
	if phantom {
		p.phantoms++
		if p.parkedSlot(ta) >= 0 || ta < now {
			return
		}
		c := p.claim(ta)
		if c.flags&cellExpected != 0 {
			// Never overwrite a real reservation with a phantom one.
			return
		}
		p.expect(c, ta, departAt, outPort, true)
		return
	}
	if slot := p.parkedSlot(ta); slot >= 0 {
		s := &p.pool[slot]
		s.departAt = departAt
		s.outPort = uint8(outPort)
		p.parked--
		p.ledger.onScheduleParked(now, ta, departAt)
		return
	}
	if ta < now {
		if p.faultTolerant {
			// The flit was destroyed en route and never arrived;
			// the reservation dissolves. The upstream credit still
			// flows (the buffer was reserved but never bound, so
			// releasing it at the scheduled departure stays exact)
			// and the departure slot simply idles.
			return
		}
		panic(fmt.Sprintf("core: reservation for past arrival %d at cycle %d with no parked flit", ta, now))
	}
	c := p.claim(ta)
	if c.flags&cellExpected != 0 {
		panic(fmt.Sprintf("core: duplicate reservation for arrival cycle %d", ta))
	}
	p.expect(c, ta, departAt, outPort, false)
	p.ledger.onReserve(ta, departAt)
}

// arrive handles a data flit that reached this input at cycle now. A flit
// reserved to depart this same cycle bypasses the buffer pool entirely and is
// handed straight to fn (the paper's bypass path — zero buffer residency);
// otherwise it is bound to a free pool buffer. Reservation accounting
// guarantees a buffer is free in a corruption-free run; running out then
// indicates a scheduling bug and panics. Under fault injection the pool can
// be transiently overcommitted — a phantom-orphaned flit occupies its slot
// until reclamation while the credit its control flit sent upstream already
// promised the slot free — so the arriving flit is refused (return false)
// and the caller drops it into the loss path. A phantom reservation for this
// cycle is ignored: the flit parks beside it as if unannounced.
func (p *inputPort) arrive(now sim.Cycle, f noc.DataFlit, bypass func(f noc.DataFlit, out topology.Port)) bool {
	c := p.cell(now)
	if c != nil && c.flags&(cellExpected|cellPhantom) != cellExpected {
		c = nil // no real reservation for this arrival
	}
	if c != nil && c.wait == 0 {
		out := topology.Port(c.out)
		p.unexpect(c)
		bypass(f, out)
		return true
	}
	slot := -1
	for i := range p.pool {
		if !p.pool[i].occupied {
			slot = i
			break
		}
	}
	if slot == -1 {
		if p.faultTolerant {
			return false
		}
		panic(fmt.Sprintf("core: data flit %s arrived at cycle %d with no free buffer — reservation accounting violated", f, now))
	}
	if c == nil && p.parkedSlot(now) >= 0 {
		panic("core: two flits parked with the same arrival cycle on one input")
	}
	s := &p.pool[slot]
	s.occupied = true
	s.ref = flitRef{pkt: f.Packet, seq: int32(f.Seq), attempt: int32(f.Attempt)}
	s.corrupted = f.Corrupted
	s.arrived = now
	p.occupied++
	if c != nil {
		s.departAt = now + sim.Cycle(c.wait)
		s.outPort = c.out
		p.unexpect(c)
		return true
	}
	// Arrived before its control flit finished scheduling: park it on the
	// schedule list.
	s.departAt = sim.Never
	s.outPort = 0
	p.parked++
	p.parkedTotal++
	p.probe.Late(now, p.node, p.portIndex, uint64(f.Packet.ID), f.Seq)
	p.ledger.onParkedArrival(now)
	return true
}

// departures invokes fn for every flit scheduled to leave at cycle now and
// frees its buffer. The one-reservation-per-output-cycle rule upstream
// guarantees distinct flits never contend for a channel here.
func (p *inputPort) departures(now sim.Cycle, fn func(f noc.DataFlit, out topology.Port)) {
	for i := range p.pool {
		s := &p.pool[i]
		if !s.occupied || s.departAt != now {
			continue
		}
		f, out := s.flit(), topology.Port(s.outPort)
		s.free()
		p.occupied--
		fn(f, out)
	}
}

// expireExpected discards a reservation whose data flit failed to arrive at
// its scheduled cycle (destroyed by a fault upstream): the channel slot the
// departure reserved simply goes idle and no buffer was ever bound, so
// accounting stays consistent. It must run after the cycle's arrivals. A
// condemned cycle whose flit never showed up expires the same way.
func (p *inputPort) expireExpected(now sim.Cycle) {
	if c := p.cell(now); c != nil {
		p.unexpect(c)
		c.flags = 0
	}
}

// condemn marks a future arrival cycle as orphaned: the control flit that
// was to schedule the arriving data flit has been destroyed by a hard fault,
// so the flit must be dropped on arrival rather than parked forever.
func (p *inputPort) condemn(ta sim.Cycle) { p.claim(ta).flags |= cellCondemned }

// condemnedArrival reports (and consumes) whether the flit arriving at now
// belongs to a destroyed control stream.
func (p *inputPort) condemnedArrival(now sim.Cycle) bool {
	c := p.cell(now)
	if c == nil || c.flags&cellCondemned == 0 {
		return false
	}
	c.flags &^= cellCondemned
	return true
}

// unpark frees parked slot i and returns its flit.
func (p *inputPort) unpark(i int) noc.DataFlit {
	s := &p.pool[i]
	f := s.flit()
	s.free()
	p.occupied--
	p.parked--
	return f
}

// dropParked removes and returns the flit parked under arrival cycle ta, if
// any: its control flit has been destroyed by a hard fault, so it can never
// be scheduled out of the pool.
func (p *inputPort) dropParked(ta sim.Cycle) (noc.DataFlit, bool) {
	slot := p.parkedSlot(ta)
	if slot < 0 {
		return noc.DataFlit{}, false
	}
	return p.unpark(slot), true
}

// reclaim collects parked flits no control flit will ever schedule: a flit
// parked longer than timeout cycles is dropped into the loss path. In a
// corruption-free run nothing waits that long — a healthy flit's schedule-
// list residency is bounded by the control network's worst queueing delay —
// so only phantom-orphaned flits are ever collected. Stale slots are
// processed in arrival order so a run replays bit-identically.
func (p *inputPort) reclaim(now, timeout sim.Cycle, drop func(noc.DataFlit)) {
	for p.parked > 0 {
		oldest := -1
		for i := range p.pool {
			s := &p.pool[i]
			if s.parked() && now-s.arrived >= timeout && (oldest < 0 || s.arrived < p.pool[oldest].arrived) {
				oldest = i
			}
		}
		if oldest < 0 {
			return
		}
		f := p.unpark(oldest)
		p.reclaimed++
		drop(f)
	}
}

// purgeOutput erases every reservation and buffered flit bound for output
// port out. It runs when the link behind out is repaired and the output's
// reservation table is rebuilt from scratch: departures committed on the old
// table would collide with the fresh table's bookkeeping, so their flits are
// destroyed (reported through drop) and their not-yet-arrived brethren are
// condemned. Parked flits stay — their control flit will schedule them on
// the fresh table.
func (p *inputPort) purgeOutput(out topology.Port, drop func(noc.DataFlit)) {
	for i := range p.ring {
		c := &p.ring[i]
		if c.flags&cellExpected != 0 && topology.Port(c.out) == out {
			p.unexpect(c)
			c.flags |= cellCondemned
		}
	}
	for i := range p.pool {
		s := &p.pool[i]
		if s.occupied && s.departAt != sim.Never && topology.Port(s.outPort) == out {
			f := s.flit()
			s.free()
			p.occupied--
			drop(f)
		}
	}
}

// reset returns the input port to its just-built state, destroying every
// buffered flit (reported through drop) and every reservation. It runs when
// the link feeding this input is repaired: the upstream router restarts with
// a fresh reservation table that believes every buffer here is free, so the
// port must actually be empty or its pool would be overcommitted.
func (p *inputPort) reset(drop func(noc.DataFlit)) {
	for i := range p.pool {
		s := &p.pool[i]
		if s.occupied {
			drop(s.flit())
		}
		s.free()
	}
	p.occupied, p.parked, p.expected = 0, 0, 0
	clear(p.ring)
}

// pending reports buffered flits plus outstanding expectations, used by the
// drain check at the end of a run.
func (p *inputPort) pending() int {
	return p.occupied + p.expected
}

package core

// This file keeps the reservation tables as they were before they became
// rings — the output table indexed by a general modulo and rebuilding its
// suffix minimum on every search, the input table as maps keyed by arrival
// cycle — as oracles for the differential tests in tables_ring_test.go. They
// are test code only.

import (
	"fmt"
	"sort"

	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

type modOutTable struct {
	size   int // Horizon+1 cells: departures reservable in [now+1, now+Horizon]
	base   sim.Cycle
	busy   []bool
	free   []int
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

	// sufMin is scratch for departure searches.
	sufMin []int
}

func newModOutTable(horizon sim.Cycle, buffers, ctrlVCs int, infinite bool) *modOutTable {
	size := int(horizon) + 1
	t := &modOutTable{
		size:        size,
		busy:        make([]bool, size),
		free:        make([]int, size),
		cap:         buffers,
		steady:      buffers,
		infinite:    infinite,
		outstanding: make([]int, ctrlVCs),
		claims:      make([]int, ctrlVCs),
		sufMin:      make([]int, size+1),
	}
	for i := range t.free {
		t.free[i] = buffers
	}
	return t
}

func (t *modOutTable) idx(c sim.Cycle) int {
	if c < 0 {
		panic("core: negative cycle in reservation table")
	}
	return int(c % sim.Cycle(t.size))
}

// end returns one past the last cycle in the window.
func (t *modOutTable) end() sim.Cycle { return t.base + sim.Cycle(t.size) }

// advance slides the window so it starts at now, recycling expired cells.
func (t *modOutTable) advance(now sim.Cycle) {
	if now < t.base {
		panic("core: reservation table advanced backwards")
	}
	if now-t.base >= sim.Cycle(t.size) {
		// The whole window expired (only possible in tests that jump
		// time); reset every cell.
		t.base = now
		for i := range t.busy {
			t.busy[i] = false
		}
		for c := t.base; c < t.end(); c++ {
			t.free[t.idx(c)] = t.revealValue(c)
		}
		t.pruneFuture()
		return
	}
	for t.base < now {
		// The cell for cycle t.base expires and is recycled as the
		// cell for cycle t.base+size.
		revealed := t.base + sim.Cycle(t.size)
		i := t.idx(t.base)
		t.busy[i] = false
		t.free[i] = t.revealValue(revealed)
		t.base++
	}
	t.pruneFuture()
}

// revealValue computes the free count for a newly revealed cell at cycle c:
// steady, excluding future events that take effect only after c.
func (t *modOutTable) revealValue(c sim.Cycle) int {
	v := t.steady
	for _, f := range t.future {
		if f.at > c {
			v -= f.delta
		}
	}
	return v
}

func (t *modOutTable) pruneFuture() {
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
func (t *modOutTable) findDeparture(now, ta, tp sim.Cycle, vc int) (td sim.Cycle, ok bool) {
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
	if t.infinite {
		for c := start; c < t.end(); c++ {
			if !t.busy[t.idx(c)] {
				return c, true
			}
		}
		return 0, false
	}
	need := 1 + t.reserve(vc)
	// Suffix minimum of the free counts lets each candidate departure be
	// checked in O(1): sufMin[i] = min over window cells [base+i, end).
	t.sufMin[t.size] = t.steady
	for i := t.size - 1; i >= 0; i-- {
		v := t.free[t.idx(t.base+sim.Cycle(i))]
		if t.sufMin[i+1] < v {
			v = t.sufMin[i+1]
		}
		t.sufMin[i] = v
	}
	for c := start; c < t.end(); c++ {
		if t.busy[t.idx(c)] {
			continue
		}
		arr := c + tp
		minFree := t.steady
		if arr < t.end() {
			minFree = t.sufMin[arr-t.base]
		}
		if minFree >= need && t.steady >= need {
			return c, true
		}
	}
	return 0, false
}

// reserve reports how many downstream buffers must be left untouched by a
// reservation on behalf of control VC vc: every other VC's claimed buffers,
// plus one per other VC that has neither residents nor claims downstream (so
// a future head always finds a first buffer).
func (t *modOutTable) reserve(vc int) int {
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
func (t *modOutTable) admit(vc, k int) bool {
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
func (t *modOutTable) releaseClaim(vc int) {
	if t.infinite {
		return
	}
	t.claims[vc]--
	if t.claims[vc] < 0 {
		panic("core: claim released without admission")
	}
}

// commit reserves the channel at td and one downstream buffer (attributed to
// control VC vc) from td+tp onward. The caller must have obtained td from
// findDeparture in the same cycle (no intervening commits invalidate it only
// if re-checked; the router always pairs find+commit).
func (t *modOutTable) commit(td, tp sim.Cycle, vc int) {
	i := t.idx(td)
	if t.busy[i] {
		panic("core: committing a departure on a busy channel cycle")
	}
	if td < t.base || td >= t.end() {
		panic(fmt.Sprintf("core: departure %d outside window [%d,%d)", td, t.base, t.end()))
	}
	t.busy[i] = true
	if t.infinite {
		return
	}
	t.outstanding[vc]++
	arr := td + tp
	t.steady--
	for c := arr; c < t.end(); c++ {
		t.free[t.idx(c)]--
		if t.free[t.idx(c)] < 0 {
			panic("core: downstream free-buffer count went negative")
		}
	}
	if arr >= t.end() {
		// The decrement is folded into steady; cells revealed before
		// arr must not see it.
		t.future = append(t.future, futureDelta{at: arr, delta: -1})
	}
}

// uncommit rolls back a commit made earlier in the same cycle, used by
// all-or-nothing scheduling when a later flit of the same control flit fails.
func (t *modOutTable) uncommit(td, tp sim.Cycle, vc int) {
	i := t.idx(td)
	if !t.busy[i] {
		panic("core: uncommit of a non-busy channel cycle")
	}
	t.busy[i] = false
	if t.infinite {
		return
	}
	t.outstanding[vc]--
	if t.outstanding[vc] < 0 {
		panic("core: outstanding residency count went negative on uncommit")
	}
	arr := td + tp
	t.steady++
	for c := arr; c < t.end(); c++ {
		t.free[t.idx(c)]++
	}
	if arr >= t.end() {
		for j := len(t.future) - 1; j >= 0; j-- {
			if t.future[j].at == arr && t.future[j].delta == -1 {
				t.future = append(t.future[:j], t.future[j+1:]...)
				return
			}
		}
		panic("core: uncommit found no matching future delta")
	}
}

// creditFrom processes a downstream credit: one more buffer is free from
// cycle `from` onward, ending a residency attributed to control VC vc.
//
// A credit's release cycle always falls inside the window: the downstream
// scheduler picked it within its own horizon of equal length, and the credit
// wire adds at least one cycle, so from <= (now-1) + Horizon < end. The
// availability search relies on this — a beyond-window credit would mean
// cells revealed before `from` could silently dip below the searched
// minimum — so it is enforced rather than tolerated.
func (t *modOutTable) creditFrom(from sim.Cycle, vc int) {
	if t.infinite {
		return
	}
	if from >= t.end() {
		panic(fmt.Sprintf("core: credit release cycle %d beyond window end %d — horizons out of sync", from, t.end()))
	}
	if from < t.base {
		from = t.base
	}
	t.outstanding[vc]--
	if t.outstanding[vc] < 0 {
		panic("core: outstanding residency count went negative on credit")
	}
	t.steady++
	if t.steady > t.cap {
		panic("core: free-buffer count exceeded downstream capacity")
	}
	for c := from; c < t.end(); c++ {
		j := t.idx(c)
		t.free[j]++
		if t.free[j] > t.cap {
			panic("core: free-buffer cell exceeded downstream capacity")
		}
	}
}

// freeAt reports the free-buffer count recorded for cycle c (tests only).
func (t *modOutTable) freeAt(c sim.Cycle) int {
	if c < t.base || c >= t.end() {
		panic("core: freeAt outside window")
	}
	return t.free[t.idx(c)]
}

// busyAt reports whether the channel is reserved at cycle c (tests only).
func (t *modOutTable) busyAt(c sim.Cycle) bool {
	if c < t.base || c >= t.end() {
		panic("core: busyAt outside window")
	}
	return t.busy[t.idx(c)]
}

// mapPoolSlot is a pool buffer as the map-based input port kept it.
type mapPoolSlot struct {
	occupied bool
	flit     noc.DataFlit
	departAt sim.Cycle
	outPort  topology.Port
}

// reservation is one pending entry of the input reservation table: a data
// flit will arrive at a known cycle and must leave at departAt through
// outPort.
type reservation struct {
	departAt sim.Cycle
	outPort  topology.Port
	// phantom marks a reservation installed by a corrupted control flit
	// that escaped the hop CRC: its schedule is garbage the real traffic
	// must never act on. The arriving data flit is not claimed by it — the
	// flit parks until timeout reclamation collects it — and the entry
	// itself dissolves unclaimed through the ordinary expiry path.
	phantom bool
}

// inputPort is the data-network side of one router input: the buffer pool,
// the input reservation table (expected arrivals), and the schedule list
// (flits that arrived before their control flit finished scheduling,
// Section 3). Data flits are identified solely by their arrival cycle; the
// one-flit-per-cycle channel makes that identification unambiguous.
type mapInputPort struct {
	pool     []mapPoolSlot
	occupied int
	// expected maps a future arrival cycle to its reservation.
	expected map[sim.Cycle]reservation
	// parked maps the arrival cycle of an already-arrived, unscheduled
	// flit to the pool slot holding it (the logical schedule list).
	parked map[sim.Cycle]int
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
	// condemned marks arrival cycles whose control stream a hard fault
	// destroyed: the data flit, if it still arrives, is dropped on sight
	// instead of parking forever on the schedule list.
	condemned map[sim.Cycle]bool

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

func newMapInputPort(buffers int, ledger *eagerLedger, faultTolerant bool) *mapInputPort {
	return &mapInputPort{
		pool:          make([]mapPoolSlot, buffers),
		expected:      make(map[sim.Cycle]reservation),
		parked:        make(map[sim.Cycle]int),
		condemned:     make(map[sim.Cycle]bool),
		ledger:        ledger,
		faultTolerant: faultTolerant,
	}
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
func (p *mapInputPort) reserve(now, ta, departAt sim.Cycle, outPort topology.Port, phantom bool) {
	if phantom {
		p.phantoms++
		if _, parked := p.parked[ta]; parked || ta < now {
			return
		}
		if _, dup := p.expected[ta]; dup {
			// Never overwrite a real reservation with a phantom one.
			return
		}
		p.expected[ta] = reservation{departAt: departAt, outPort: outPort, phantom: true}
		return
	}
	if slot, ok := p.parked[ta]; ok {
		delete(p.parked, ta)
		s := &p.pool[slot]
		if !s.occupied || s.departAt != sim.Never {
			panic("core: schedule list pointed at a slot that is not parked")
		}
		s.departAt = departAt
		s.outPort = outPort
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
	if _, dup := p.expected[ta]; dup {
		panic(fmt.Sprintf("core: duplicate reservation for arrival cycle %d", ta))
	}
	p.expected[ta] = reservation{departAt: departAt, outPort: outPort}
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
func (p *mapInputPort) arrive(now sim.Cycle, f noc.DataFlit, bypass func(f noc.DataFlit, out topology.Port)) bool {
	if r, ok := p.expected[now]; ok && !r.phantom && r.departAt == now {
		delete(p.expected, now)
		bypass(f, r.outPort)
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
	s := &p.pool[slot]
	s.occupied = true
	s.flit = f
	p.occupied++
	if r, ok := p.expected[now]; ok && !r.phantom {
		delete(p.expected, now)
		s.departAt = r.departAt
		s.outPort = r.outPort
		return true
	}
	// Arrived before its control flit finished scheduling: park it on the
	// schedule list.
	s.departAt = sim.Never
	s.outPort = 0
	if _, dup := p.parked[now]; dup {
		panic("core: two flits parked with the same arrival cycle on one input")
	}
	p.parked[now] = slot
	p.parkedTotal++
	p.probe.Late(now, p.node, p.portIndex, uint64(f.Packet.ID), f.Seq)
	p.ledger.onParkedArrival(now)
	return true
}

// departures invokes fn for every flit scheduled to leave at cycle now and
// frees its buffer. The one-reservation-per-output-cycle rule upstream
// guarantees distinct flits never contend for a channel here.
func (p *mapInputPort) departures(now sim.Cycle, fn func(f noc.DataFlit, out topology.Port)) {
	for i := range p.pool {
		s := &p.pool[i]
		if !s.occupied || s.departAt != now {
			continue
		}
		s.occupied = false
		p.occupied--
		fn(s.flit, s.outPort)
		s.flit = noc.DataFlit{}
		s.departAt = sim.Never
	}
}

// expireExpected discards a reservation whose data flit failed to arrive at
// its scheduled cycle (destroyed by a fault upstream): the channel slot the
// departure reserved simply goes idle and no buffer was ever bound, so
// accounting stays consistent. It must run after the cycle's arrivals. A
// condemned cycle whose flit never showed up expires the same way.
func (p *mapInputPort) expireExpected(now sim.Cycle) {
	delete(p.expected, now)
	delete(p.condemned, now)
}

// condemn marks a future arrival cycle as orphaned: the control flit that
// was to schedule the arriving data flit has been destroyed by a hard fault,
// so the flit must be dropped on arrival rather than parked forever.
func (p *mapInputPort) condemn(ta sim.Cycle) { p.condemned[ta] = true }

// condemnedArrival reports (and consumes) whether the flit arriving at now
// belongs to a destroyed control stream.
func (p *mapInputPort) condemnedArrival(now sim.Cycle) bool {
	if p.condemned[now] {
		delete(p.condemned, now)
		return true
	}
	return false
}

// dropParked removes and returns the flit parked under arrival cycle ta, if
// any: its control flit has been destroyed by a hard fault, so it can never
// be scheduled out of the pool.
func (p *mapInputPort) dropParked(ta sim.Cycle) (noc.DataFlit, bool) {
	slot, ok := p.parked[ta]
	if !ok {
		return noc.DataFlit{}, false
	}
	delete(p.parked, ta)
	s := &p.pool[slot]
	f := s.flit
	s.occupied = false
	p.occupied--
	s.flit = noc.DataFlit{}
	s.departAt = sim.Never
	return f, true
}

// reclaim collects parked flits no control flit will ever schedule: a flit
// parked longer than timeout cycles is dropped into the loss path. In a
// corruption-free run nothing waits that long — a healthy flit's schedule-
// list residency is bounded by the control network's worst queueing delay —
// so only phantom-orphaned flits are ever collected. Stale slots are
// processed in arrival order so a run replays bit-identically.
func (p *mapInputPort) reclaim(now, timeout sim.Cycle, drop func(noc.DataFlit)) {
	if len(p.parked) == 0 {
		return
	}
	var stale []sim.Cycle
	for ta := range p.parked {
		if now-ta >= timeout {
			stale = append(stale, ta)
		}
	}
	if len(stale) == 0 {
		return
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, ta := range stale {
		f, _ := p.dropParked(ta)
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
func (p *mapInputPort) purgeOutput(out topology.Port, drop func(noc.DataFlit)) {
	for ta, r := range p.expected {
		if r.outPort == out {
			delete(p.expected, ta)
			p.condemned[ta] = true
		}
	}
	for i := range p.pool {
		s := &p.pool[i]
		if s.occupied && s.departAt != sim.Never && s.outPort == out {
			s.occupied = false
			p.occupied--
			drop(s.flit)
			s.flit = noc.DataFlit{}
			s.departAt = sim.Never
		}
	}
}

// reset returns the input port to its just-built state, destroying every
// buffered flit (reported through drop) and every reservation. It runs when
// the link feeding this input is repaired: the upstream router restarts with
// a fresh reservation table that believes every buffer here is free, so the
// port must actually be empty or its pool would be overcommitted.
func (p *mapInputPort) reset(drop func(noc.DataFlit)) {
	for i := range p.pool {
		s := &p.pool[i]
		if s.occupied {
			drop(s.flit)
		}
		*s = mapPoolSlot{departAt: sim.Never}
	}
	p.occupied = 0
	for ta := range p.expected {
		delete(p.expected, ta)
	}
	for ta := range p.parked {
		delete(p.parked, ta)
	}
	for ta := range p.condemned {
		delete(p.condemned, ta)
	}
}

// pending reports buffered flits plus outstanding expectations, used by the
// drain check at the end of a run.
func (p *mapInputPort) pending() int {
	return p.occupied + len(p.expected)
}

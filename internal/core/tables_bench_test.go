package core

import (
	"reflect"
	"testing"
	"unsafe"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// Layer benchmarks for the FR hot path: the output reservation table's four
// operations, the input port's reservation/arrival pipeline, and one cycle of
// a loaded 8×8 FR6 network. Run with
//
//	go test ./internal/core -run '^$' -bench 'OutTable|InputPort|RouterTick' -count 10
//
// The table benchmarks replay operations that are valid on one loaded table
// state; each clone of that state absorbs a short run of operations and is
// replaced, untimed, when used up.

// deepCopy returns a copy of *src whose slice fields own fresh arrays, so a
// benchmark can restore a table to a saved state.
func deepCopy[T any](src *T) *T {
	dst := new(T)
	*dst = *src
	v := reflect.ValueOf(dst).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Slice || f.IsNil() {
			continue
		}
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		c := reflect.MakeSlice(f.Type(), f.Len(), f.Cap())
		reflect.Copy(c, f)
		f.Set(c)
	}
	return dst
}

// clones hands out fresh copies of a saved state, refilling its pool with
// the timer stopped.
type clones[T any] struct {
	snap *T
	pool []*T
	next int
}

func newClones[T any](snap *T) *clones[T] {
	return &clones[T]{snap: snap, pool: make([]*T, 64), next: 64}
}

func (c *clones[T]) get(b *testing.B) *T {
	if c.next == len(c.pool) {
		b.StopTimer()
		for i := range c.pool {
			c.pool[i] = deepCopy(c.snap)
		}
		c.next = 0
		b.StartTimer()
	}
	c.next++
	return c.pool[c.next-1]
}

const benchTP = 4 // data link latency of the paper's fast-control wiring

type benchCredit struct {
	at, from sim.Cycle
	vc       int
}

// loadedTable runs one FR6 output table (horizon 32, 6 buffers, 2 control
// VCs) under a seeded stream of reservations and credits at about the
// paper's 70% load and returns it mid-stream, at a cycle that owes at least
// four credits whose release cycle already lies in its window, with those
// credits.
func loadedTable() (*outResTable, []benchCredit) {
	tb := newOutResTable(32, 6, 2, false)
	rng := sim.NewRNG(12)
	var owed, due []benchCredit
	for now := sim.Cycle(0); ; now++ {
		tb.advance(now)
		n := 0
		for _, c := range owed {
			if c.at <= now {
				tb.creditFrom(c.from, c.vc)
				continue
			}
			owed[n] = c
			n++
		}
		owed = owed[:n]
		due = due[:0]
		for _, c := range owed {
			if c.from < tb.end() {
				due = append(due, c)
			}
		}
		if now >= 400 && len(due) >= 4 {
			return tb, due
		}
		// Two control flits a cycle, each leading a flit 70% of the
		// time between them; the downstream credits each buffer a few
		// cycles after the reservation.
		for k := 0; k < 2; k++ {
			if !rng.Bool(0.35) {
				continue
			}
			vc := rng.Intn(2)
			ta := now + sim.Cycle(rng.Intn(24))
			if td, ok := tb.findDeparture(now, ta, benchTP, vc); ok {
				tb.commit(td, benchTP, vc)
				from := td + benchTP + 1 + sim.Cycle(rng.Intn(6))
				at := now + 2 + sim.Cycle(rng.Intn(10))
				if min := from - 32; at < min {
					at = min
				}
				owed = append(owed, benchCredit{at: at, from: from, vc: vc})
			}
		}
	}
}

func BenchmarkOutTableFindDeparture(b *testing.B) {
	tb, _ := loadedTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.findDeparture(tb.base, tb.base+sim.Cycle(i%28), benchTP, i&1)
	}
}

func BenchmarkOutTableCommit(b *testing.B) {
	tb, _ := loadedTable()
	// The reservations a control flit stream would make next, in order.
	type res struct {
		td sim.Cycle
		vc int
	}
	var seq []res
	scratch := deepCopy(tb)
	for ta := tb.base; ta < tb.end(); ta += 3 {
		vc := len(seq) & 1
		if td, ok := scratch.findDeparture(tb.base, ta, benchTP, vc); ok {
			scratch.commit(td, benchTP, vc)
			seq = append(seq, res{td, vc})
		}
	}
	if len(seq) == 0 {
		b.Fatal("loaded table admits no reservation")
	}
	pool := newClones(tb)
	b.ReportAllocs()
	b.ResetTimer()
	var t *outResTable
	for i := 0; i < b.N; i++ {
		k := i % len(seq)
		if k == 0 {
			t = pool.get(b)
		}
		t.commit(seq[k].td, benchTP, seq[k].vc)
	}
}

func BenchmarkOutTableCreditFrom(b *testing.B) {
	tb, owed := loadedTable()
	if len(owed) == 0 {
		b.Fatal("loaded table owes no credit")
	}
	pool := newClones(tb)
	b.ReportAllocs()
	b.ResetTimer()
	var t *outResTable
	for i := 0; i < b.N; i++ {
		k := i % len(owed)
		if k == 0 {
			t = pool.get(b)
		}
		t.creditFrom(owed[k].from, owed[k].vc)
	}
}

func BenchmarkOutTableAdvance(b *testing.B) {
	tb, _ := loadedTable()
	pool := newClones(tb)
	b.ReportAllocs()
	b.ResetTimer()
	var t *outResTable
	for i := 0; i < b.N; i++ {
		k := i % 16
		if k == 0 {
			t = pool.get(b)
		}
		t.advance(tb.base + sim.Cycle(k+1))
	}
}

// BenchmarkInputPortReserve times a reservation for a future arrival on an
// FR6 input holding a reservation for every other upcoming cycle, paired with
// the expiry that retires it.
func BenchmarkInputPortReserve(b *testing.B) {
	p := newInputPort(6, 35, nil, false)
	for ta := sim.Cycle(1); ta < 34; ta += 2 {
		p.reserve(0, ta, ta+2, topology.East, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ta := sim.Cycle(2 * (i%16 + 1))
		p.reserve(0, ta, ta+3, topology.West, false)
		p.expireExpected(ta)
	}
}

// BenchmarkInputPortArrive runs an FR6 input's data path one cycle per
// iteration: a flit reserved ten cycles earlier arrives and is bound to a
// buffer, the flit bound three cycles earlier departs, and the reservation
// for the flit ten cycles out is installed.
func BenchmarkInputPortArrive(b *testing.B) {
	p := newInputPort(6, 35, nil, false)
	f := testFlit(1, 0)
	out := func(noc.DataFlit, topology.Port) {}
	for ta := sim.Cycle(0); ta < 10; ta++ {
		p.reserve(0, ta, ta+3, topology.East, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Cycle(i)
		p.reserve(now, now+10, now+13, topology.East, false)
		p.departures(now, out)
		p.arrive(now, f, out)
		p.expireExpected(now)
	}
}

// BenchmarkRouterTick times one cycle of an 8×8 FR6 network under uniform
// traffic at 70% of capacity, warmed up for 3000 cycles: all 64 routers,
// NIs and sinks. ns/router-tick divides by the 64 routers; allocs/op is per
// network cycle. Packets are allocated before the timer starts.
func BenchmarkRouterTick(b *testing.B) {
	mesh := topology.NewMesh(8)
	n := New(mesh, fastControl(), 1, nil)
	rng := sim.NewRNG(9)
	rate := 0.7 * mesh.CapacityPerNode() / 5
	id := noc.PacketID(0)
	offer := func(now sim.Cycle, pkts []noc.Packet) []noc.Packet {
		for src := 0; src < mesh.N(); src++ {
			if !rng.Bool(rate) {
				continue
			}
			dst := (src + 1 + rng.Intn(mesh.N()-1)) % mesh.N()
			id++
			p := &pkts[0]
			pkts = pkts[1:]
			*p = noc.Packet{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), Len: 5, CreatedAt: now}
			n.Offer(p)
		}
		return pkts
	}
	const warm = 3000
	pkts := make([]noc.Packet, int(float64((warm+b.N)*mesh.N())*rate*1.2)+mesh.N())
	now := sim.Cycle(0)
	for ; now < warm; now++ {
		pkts = offer(now, pkts)
		n.Tick(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkts = offer(now, pkts)
		n.Tick(now)
		now++
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(mesh.N()), "ns/router-tick")
}

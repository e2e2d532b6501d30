package core

import (
	"fmt"
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// panics runs f and reports whether it panicked.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestOutTableMatchesModuloOracle drives the ring-indexed output table and
// the modulo-indexed oracle (oracle_test.go) through the same seeded random
// advance/find/commit/uncommit/credit/admit sequences and requires every
// observable — search results, every cell's busy bit and free count, steady,
// the per-VC counts — to agree after every step.
func TestOutTableMatchesModuloOracle(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := sim.NewRNG(seed)
		horizon := sim.Cycle(4 + rng.Intn(45))
		buffers := 1 + rng.Intn(13)
		vcs := 1 + rng.Intn(4)
		infinite := rng.Intn(8) == 0
		tp := sim.Cycle(1 + rng.Intn(int(horizon)-1))
		got := newOutResTable(horizon, buffers, vcs, infinite)
		want := newModOutTable(horizon, buffers, vcs, infinite)
		type credit struct {
			at, from sim.Cycle
			vc       int
		}
		var credits []credit
		now := sim.Cycle(0)
		for step := 0; step < 300; step++ {
			now += sim.Cycle(rng.Intn(3))
			if rng.Intn(60) == 0 {
				now += 2 * horizon // the whole window expires
			}
			got.advance(now)
			want.advance(now)
			n := 0
			for _, c := range credits {
				if c.at > now {
					credits[n] = c
					n++
					continue
				}
				got.creditFrom(c.from, c.vc)
				want.creditFrom(c.from, c.vc)
			}
			credits = credits[:n]
			for k := rng.Intn(4); k > 0; k-- {
				vc := rng.Intn(vcs)
				if rng.Intn(6) == 0 {
					claim := 1 + rng.Intn(3)
					if a, b := got.admit(vc, claim), want.admit(vc, claim); a != b {
						t.Fatalf("seed %d step %d: admit = %v, oracle %v", seed, step, a, b)
					}
				}
				ta := now - 3 + sim.Cycle(rng.Intn(int(horizon)+6))
				td, ok := got.findDeparture(now, ta, tp, vc)
				wtd, wok := want.findDeparture(now, ta, tp, vc)
				if td != wtd || ok != wok {
					t.Fatalf("seed %d step %d: findDeparture(%d, %d, %d, %d) = %d, %v; oracle %d, %v",
						seed, step, now, ta, tp, vc, td, ok, wtd, wok)
				}
				if !ok {
					continue
				}
				if got.claims[vc] > 0 {
					got.releaseClaim(vc)
					want.releaseClaim(vc)
				}
				got.commit(td, tp, vc)
				want.commit(td, tp, vc)
				if rng.Intn(5) == 0 {
					got.uncommit(td, tp, vc)
					want.uncommit(td, tp, vc)
					continue
				}
				if !infinite {
					// The downstream frees the buffer a little after the
					// flit arrives; the credit lands within the window.
					from := td + tp + sim.Cycle(rng.Intn(6))
					at := now + 1 + sim.Cycle(rng.Intn(3))
					if min := from - horizon; at < min {
						at = min
					}
					credits = append(credits, credit{at: at, from: from, vc: vc})
				}
			}
			if got.base != want.base || got.end() != want.end() || got.steady != want.steady {
				t.Fatalf("seed %d step %d: window [%d,%d) steady %d; oracle [%d,%d) steady %d",
					seed, step, got.base, got.end(), got.steady, want.base, want.end(), want.steady)
			}
			for v := 0; v < vcs; v++ {
				if got.outstanding[v] != want.outstanding[v] || got.claims[v] != want.claims[v] {
					t.Fatalf("seed %d step %d: vc %d outstanding/claims %d/%d; oracle %d/%d",
						seed, step, v, got.outstanding[v], got.claims[v], want.outstanding[v], want.claims[v])
				}
			}
			for c := got.base; c < got.end(); c++ {
				if got.busyAt(c) != want.busyAt(c) || (!infinite && got.freeAt(c) != want.freeAt(c)) {
					t.Fatalf("seed %d step %d: cycle %d busy/free %v/%d; oracle %v/%d",
						seed, step, c, got.busyAt(c), got.freeAt(c), want.busyAt(c), want.freeAt(c))
				}
			}
		}
	}
}

// inputTrace records what an input port hands to its callbacks.
type inputTrace []string

func (tr *inputTrace) fn(tag string) func(noc.DataFlit, topology.Port) {
	return func(f noc.DataFlit, out topology.Port) {
		*tr = append(*tr, fmt.Sprintf("%s %d/%d->%d", tag, f.Packet.ID, f.Seq, out))
	}
}

func (tr *inputTrace) drop(f noc.DataFlit) {
	*tr = append(*tr, fmt.Sprintf("drop %d/%d", f.Packet.ID, f.Seq))
}

// TestInputRingMatchesMapOracle drives the ring-backed input port and the
// map-backed oracle (oracle_test.go) through the same seeded random
// sequences of reserve/arrive/departures/expireExpected/condemn/dropParked/
// reclaim/purgeOutput/reset calls in the order a router issues them, with
// every reservation and condemnation inside the ring's span, in plain,
// phantom and fault-tolerant modes. Every observable must agree: return
// values, callback sequences, panics, and the pending/occupied/parked/
// expected/phantom/reclaimed counts.
func TestInputRingMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := sim.NewRNG(seed)
		buffers := 2 + rng.Intn(12)
		span := 6 + rng.Intn(40)
		faultTolerant := rng.Intn(2) == 0
		phantomRate := 0
		if rng.Intn(2) == 0 {
			phantomRate = 8
		}
		reclaimAfter := sim.Cycle(0)
		if rng.Intn(2) == 0 {
			reclaimAfter = sim.Cycle(4 + rng.Intn(30))
		}
		got := newInputPort(buffers, span, nil, faultTolerant)
		want := newMapInputPort(buffers, nil, faultTolerant)
		var gt, wt inputTrace
		both := func(step int, what string, g, w func()) bool {
			gp, wp := panics(g), panics(w)
			if gp != wp {
				t.Fatalf("seed %d cycle %d: %s panicked=%v, oracle panicked=%v", seed, step, what, gp, wp)
			}
			return gp
		}
		// rare lets through, now and then, a call the generator otherwise
		// avoids because it panics, to compare the panics too.
		rare := func() bool { return rng.Intn(1500) == 0 }
	trial:
		for now := sim.Cycle(0); now < 500; now++ {
			var parked []sim.Cycle // the oracle's schedule list, in arrival order
			for ta := now - sim.Cycle(span); ta < now; ta++ {
				if _, ok := want.parked[ta]; ok {
					parked = append(parked, ta)
				}
			}
			takeParked := func() sim.Cycle {
				i := rng.Intn(len(parked))
				ta := parked[i]
				parked = append(parked[:i], parked[i+1:]...)
				return ta
			}
			// Control: reservations, condemnations and stream teardown.
			for k := rng.Intn(4); k > 0; k-- {
				out := topology.Port(rng.Intn(int(topology.NumPorts)))
				phantom := phantomRate > 0 && rng.Intn(phantomRate) == 0
				ta := now + sim.Cycle(rng.Intn(span))
				switch r := rng.Intn(20); {
				case r < 2:
					if both(int(now), "condemn", func() { got.condemn(ta) }, func() { want.condemn(ta) }) {
						break trial
					}
					continue
				case r < 4 && len(parked) > 0:
					ta = takeParked()
					gf, gok := got.dropParked(ta)
					wf, wok := want.dropParked(ta)
					if gok != wok || gf != wf {
						t.Fatalf("seed %d cycle %d: dropParked(%d) = %v, %v; oracle %v, %v", seed, now, ta, gf, gok, wf, wok)
					}
					continue
				case r < 10 && len(parked) > 0:
					ta = takeParked()
				case r == 10 && (faultTolerant || rare()):
					ta = now - 1 - sim.Cycle(rng.Intn(span))
				default:
					if _, dup := want.expected[ta]; dup && !phantom && !rare() {
						continue
					}
				}
				from := ta
				if from < now+1 {
					from = now + 1
				}
				departAt := from + sim.Cycle(rng.Intn(8))
				if both(int(now), "reserve", func() { got.reserve(now, ta, departAt, out, phantom) },
					func() { want.reserve(now, ta, departAt, out, phantom) }) {
					break trial
				}
			}
			switch rng.Intn(150) {
			case 0:
				out := topology.Port(rng.Intn(int(topology.NumPorts)))
				got.purgeOutput(out, gt.drop)
				want.purgeOutput(out, wt.drop)
			case 1:
				got.reset(gt.drop)
				want.reset(wt.drop)
			}
			got.departures(now, gt.fn("depart"))
			want.departures(now, wt.fn("depart"))
			full := want.occupied == buffers && !faultTolerant
			if rng.Intn(3) > 0 && (!full || rare()) {
				if g, w := got.condemnedArrival(now), want.condemnedArrival(now); g != w {
					t.Fatalf("seed %d cycle %d: condemnedArrival = %v, oracle %v", seed, now, g, w)
				} else if !g {
					f := testFlit(noc.PacketID(now), int(now%8))
					var g, w bool
					if both(int(now), "arrive", func() { g = got.arrive(now, f, gt.fn("bypass")) },
						func() { w = want.arrive(now, f, wt.fn("bypass")) }) {
						break trial
					}
					if g != w {
						t.Fatalf("seed %d cycle %d: arrive = %v, oracle %v", seed, now, g, w)
					}
				}
			}
			got.expireExpected(now)
			want.expireExpected(now)
			if reclaimAfter > 0 {
				got.reclaim(now, reclaimAfter, gt.drop)
				want.reclaim(now, reclaimAfter, wt.drop)
			}
			if fmt.Sprint(gt) != fmt.Sprint(wt) {
				t.Fatalf("seed %d cycle %d: callbacks\n%v\noracle\n%v", seed, now, gt, wt)
			}
			if got.pending() != want.pending() || got.occupied != want.occupied ||
				got.parked != len(want.parked) || got.expected != len(want.expected) ||
				got.parkedTotal != want.parkedTotal || got.phantoms != want.phantoms || got.reclaimed != want.reclaimed {
				t.Fatalf("seed %d cycle %d: pending/occupied/parked/expected/parkedTotal/phantoms/reclaimed %d/%d/%d/%d/%d/%d/%d; oracle %d/%d/%d/%d/%d/%d/%d",
					seed, now, got.pending(), got.occupied, got.parked, got.expected, got.parkedTotal, got.phantoms, got.reclaimed,
					want.pending(), want.occupied, len(want.parked), len(want.expected), want.parkedTotal, want.phantoms, want.reclaimed)
			}
		}
	}
}

// TestInputRingCollisionPanics: an arrival a full span away from a live cell
// would alias it, which a correctly sized ring never sees; it must panic
// rather than overwrite.
func TestInputRingCollisionPanics(t *testing.T) {
	p := newInputPort(4, 10, nil, false)
	p.reserve(0, 3, 5, topology.East, false)
	if !panics(func() { p.reserve(0, 13, 15, topology.East, false) }) {
		t.Fatal("reservation one span past a live cell did not panic")
	}
	if !panics(func() { p.condemn(23) }) {
		t.Fatal("condemnation two spans past a live cell did not panic")
	}
}

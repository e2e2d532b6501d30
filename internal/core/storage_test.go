package core

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/overhead"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// TestReservationStateMatchesTable1 checks the simulator's per-node
// reservation state against the s-slot storage model of Table 1
// (overhead.FRStorage) for the paper's FR6 and FR13 under fast control, up to
// two documented offsets:
//
//   - an output reservation table keeps s+1 cells per port: the model's s
//     reservable cycles now+1..now+s plus the cell of the current cycle;
//   - an input reservation ring spans s plus the latency skew (data wire
//     latency minus control wire latency, 3 cycles here), the furthest a
//     reservation can name an arrival beyond the horizon.
//
// The model counts four inter-router output tables and five inputs per node;
// the ejection port's table, whose downstream never fills, keeps busy bits
// only. If either table grows, this test fails.
func TestReservationStateMatchesTable1(t *testing.T) {
	cases := []struct {
		name          string
		bd, vc, depth int
	}{
		{"FR6", 6, 2, 3},
		{"FR13", 13, 4, 3},
	}
	for _, c := range cases {
		cfg := Config{DataBuffers: c.bd, CtrlVCs: c.vc, CtrlBufPerVC: c.depth,
			Horizon: 32, DataLinkLatency: 4, CtrlLinkLatency: 1, LocalLatency: 1}.withDefaults()
		model := overhead.FRStorage(overhead.FRParams{FlitBits: 256, TypeBits: 2,
			DataBuffers: c.bd, CtrlBuffers: c.vc * c.depth, CtrlVCs: c.vc, Leads: 1,
			Horizon: int(cfg.Horizon), Ports: 5})
		outCell := 1 + overhead.Log2Ceil(c.bd)
		outSlots := model.OutputResTable / (outCell * 4)
		inSlot := 1 + overhead.Log2Ceil(int(cfg.Horizon)) + 2 + 2*overhead.Log2Ceil(c.bd)
		inSlots := (model.InputResTable/5 - c.vc*c.depth) / inSlot
		if outSlots != 32 || inSlots != 32 {
			t.Fatalf("%s: model gives %d output and %d input slots, want s = 32", c.name, outSlots, inSlots)
		}
		const skew = 3
		if got := cfg.latencySkew(); got != skew {
			t.Fatalf("%s: latency skew = %d, want %d", c.name, got, skew)
		}

		mesh := topology.NewMesh(8)
		n := New(mesh, cfg, 1, nil)
		r := n.routers[mesh.ID(topology.Coord{X: 3, Y: 3})]
		tables, inputs := 0, 0
		for p := topology.Port(0); p < topology.NumPorts; p++ {
			tb := r.outTables[p]
			if tb.infinite != (p == topology.Local) {
				t.Fatalf("%s: output %s infinite = %v", c.name, p, tb.infinite)
			}
			if !tb.infinite {
				tables++
			}
			if len(tb.cells) != outSlots+1 {
				t.Errorf("%s: output %s table has %d cells, model s+1 = %d", c.name, p, len(tb.cells), outSlots+1)
			}
			in := r.inputs[p]
			inputs++
			if len(in.ring) != inSlots+skew {
				t.Errorf("%s: input %s ring spans %d cells, model s + skew = %d", c.name, p, len(in.ring), inSlots+skew)
			}
			if len(in.pool) != c.bd {
				t.Errorf("%s: input %s pool holds %d buffers, want b_d = %d", c.name, p, len(in.pool), c.bd)
			}
		}
		if tables != 4 || inputs != 5 {
			t.Errorf("%s: %d finite output tables and %d inputs, model counts 4 and 5", c.name, tables, inputs)
		}
		if got := len(n.nis[0].injTable.cells); got != outSlots+1 {
			t.Errorf("%s: injection table has %d cells, want s+1 = %d", c.name, got, outSlots+1)
		}
		if got := len(n.nis[0].sendAt.cells); got != outSlots+1 {
			t.Errorf("%s: NI send ring spans %d cells, want s+1 = %d", c.name, got, outSlots+1)
		}
		if got, want := len(n.sinks[0].expect.cells), outSlots+int(cfg.LocalLatency)+1; got != want {
			t.Errorf("%s: sink reassembly ring spans %d cells, want s+LocalLatency+1 = %d", c.name, got, want)
		}
	}
}

// TestInputSpanCoversFurthestReservation runs loaded networks with the
// invariant checker, which fails any ring cell tagged outside
// [now, now+span) or left live past its cycle, under both wirings and with a
// slow injection link: the derived span holds every live entry.
func TestInputSpanCoversFurthestReservation(t *testing.T) {
	slowInjection := fastControl()
	slowInjection.LocalLatency = 6
	for _, cfg := range []Config{fastControl(), leadingControl(2), slowInjection} {
		cfg.Check = true
		mesh := topology.NewMesh(4)
		n := New(mesh, cfg, 3, nil)
		rng := sim.NewRNG(5)
		id := noc.PacketID(0)
		for now := sim.Cycle(0); now < 1500; now++ {
			for src := 0; src < mesh.N(); src++ {
				if !rng.Bool(0.06) {
					continue
				}
				dst := (src + 1 + rng.Intn(mesh.N()-1)) % mesh.N()
				id++
				n.Offer(&noc.Packet{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), Len: 5, CreatedAt: now})
			}
			n.Tick(now)
		}
		if n.delivered == 0 {
			t.Fatalf("skew %d: nothing delivered", cfg.withDefaults().latencySkew())
		}
	}
}

// TestInputSpanHoldsLatestArrival replays the worst case the input span is
// derived from: the upstream scheduler books the last cycle of its window,
// now+Horizon, so the data flit arrives Horizon+latency later, while its
// control flit crosses the control wire and is processed the very next
// cycle — with this input still holding an expected arrival for that cycle.
// Both entries must fit the ring side by side.
func TestInputSpanHoldsLatestArrival(t *testing.T) {
	slowInjection := fastControl()
	slowInjection.LocalLatency = 6
	for _, cfg := range []Config{fastControl(), leadingControl(2), slowInjection} {
		cfg = cfg.withDefaults()
		for _, lat := range []sim.Cycle{cfg.DataLinkLatency, cfg.LocalLatency} {
			up := newOutResTable(cfg.Horizon, cfg.DataBuffers, cfg.CtrlVCs, false)
			const t0 = 100
			up.advance(t0)
			td, ok := up.findDeparture(t0, t0+cfg.Horizon, lat, 0)
			if !ok || td != t0+cfg.Horizon {
				t.Fatalf("latest departure = %d, %v; want %d", td, ok, t0+cfg.Horizon)
			}
			now := t0 + cfg.CtrlLinkLatency + 1 // first cycle the control flit can be processed
			in := newInputPort(cfg.DataBuffers, cfg.inputSpan(), nil, false)
			in.reserve(now-1, now, now+1, topology.East, false)
			in.reserve(now, td+lat, td+lat, topology.West, false)
			if in.expected != 2 {
				t.Fatalf("skew %d: %d reservations held, want 2", cfg.latencySkew(), in.expected)
			}
		}
	}
}

package vcrouter

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// BenchmarkNetworkTick times one cycle of an 8×8 VC8 network (2 VCs × 4
// flits, fast-control wiring: 4-cycle data links) under uniform traffic at
// 40% of capacity, warmed up for 3000 cycles: all 64 routers, NIs and sinks.
// ns/router-tick divides by the 64 routers; allocs/op is per network cycle.
// Packets are allocated before the timer starts.
func BenchmarkNetworkTick(b *testing.B) {
	mesh := topology.NewMesh(8)
	cfg := Config{NumVCs: 2, BufPerVC: 4, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1}
	n := New(mesh, cfg, 1, nil)
	rng := sim.NewRNG(9)
	rate := 0.4 * mesh.CapacityPerNode() / 5
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

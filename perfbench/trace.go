package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/profile"
	"frfc/internal/service"
	"frfc/internal/sim"
	"frfc/internal/stats"
	"frfc/internal/topology"
	"frfc/internal/traffic"
	"frfc/internal/waterfall"
)

// traceSimWorkload is the traced run of fr_mesh or lineage: the traced
// passes over the workload's own jobs, then a small traced campaign for the
// layers the workload never reaches (the service and status layers, and
// the substrates it does not simulate), whose metrics fill in only names
// the workload's own passes left unset.
func traceSimWorkload(ctx context.Context, c config, o *outcome, ck *checker, jobs []harness.Job) error {
	if err := traceJobs(ctx, o, ck, jobs, c.tiny); err != nil {
		return err
	}
	x := newOutcome(o.log)
	if err := traceCampaign(ctx, c, x, campaignRequest(c.seed, true), 100, false); err != nil {
		return err
	}
	o.absorb(x)
	return nil
}

// substrate names the module that simulates a spec's flow control.
func substrate(f experiment.Flow) string {
	switch f {
	case experiment.FlitReservation:
		return "core"
	case experiment.VirtualChannel:
		return "vcrouter"
	case experiment.Wormhole:
		return "wormhole"
	case experiment.StoreForward, experiment.CutThrough:
		return "packetswitch"
	case experiment.CircuitSwitch:
		return "circuit"
	}
	return string(f)
}

// traceJobs runs the traced passes over a job list, each pass once over
// every job:
//
//  1. untraced: harness.RunJobs, the reference results and timing, with
//     the GC share;
//  2. loop: a benchmark-owned cycle loop over experiment.NewNetwork and
//     traffic generators that replays each job (same spec, seed derivation,
//     sampling protocol and cycle count), times generation, Offer, Tick
//     and the stats hook separately, and counts heap allocations (nothing
//     in the loop draws on a sync.Pool, whose contents depend on when the
//     collector ran);
//  3. phases: experiment.RunInstrumented with a Publish hook, timing the
//     warm-up, measure and drain phases, under a CPU profile;
//  4. probes: experiment.RunInstrumented with the metrics, profile and
//     waterfall probes armed, for the program's own counts;
//
// and then times job hashing, result marshalling and the result database.
// Every pass must reproduce the untraced results.
func traceJobs(ctx context.Context, o *outcome, ck *checker, jobs []harness.Job, tiny bool) error {
	var untraced []experiment.Result
	var ran []harness.Job
	var cycles float64
	var wall time.Duration
	g0 := readCPUClasses()
	for _, j := range jobs {
		r, err := execJob(ctx, j)
		ck.check("untraced", j, r.res, err)
		if err != nil {
			continue
		}
		ran = append(ran, j)
		untraced = append(untraced, r.res)
		cycles += float64(r.res.Cycles)
		wall += r.wall
	}
	if len(ran) == 0 {
		return fmt.Errorf("no job completed")
	}
	o.set("gc.cpu_frac", gcFrac(g0, readCPUClasses()))

	loopWall, coreTick := loopPass(o, ran, untraced)
	o.set("trace.sim_cycles_per_s", cycles/loopWall.Seconds())
	o.set("trace.overhead_frac", 1-wall.Seconds()/loopWall.Seconds())

	if err := phasePass(ctx, o, ck, ran); err != nil {
		return err
	}
	probeWall := probePass(ctx, o, ck, ran, coreTick)
	o.set("probe.overhead_frac", 1-wall.Seconds()/probeWall.Seconds())
	return harnessLayer(o, ran, untraced, tiny)
}

// loopTimes is what the benchmark-owned loop measured.
type loopTimes struct {
	tick      map[string]time.Duration // Network.Tick minus nested hook time, by substrate
	cycles    map[string]float64
	generate  time.Duration // Generate calls, excluding Offer
	offer     time.Duration
	record    time.Duration // stats.LatencyStats.Record inside the delivery hook
	objects   uint64        // heap objects allocated
	packets   float64
	recorded  float64
	allCycles float64
}

// loopPass replays every job in the benchmark-owned loop and sets the
// per-substrate tick costs and the traffic, noc and stats costs. It returns
// the pass's wall time and the Tick time of the flit-reservation jobs.
func loopPass(o *outcome, jobs []harness.Job, want []experiment.Result) (wall, coreTick time.Duration) {
	lt := loopTimes{tick: map[string]time.Duration{}, cycles: map[string]float64{}}
	start := time.Now()
	for i, j := range jobs {
		m0 := readMem()
		problems := replay(&lt, j, want[i])
		lt.objects += readMem().sub(m0).objects
		o.op("loop replay "+jobKey(j), problems...)
	}
	wall = time.Since(start)
	for sub, d := range lt.tick {
		o.set(sub+".tick_us_per_cycle", d.Seconds()*1e6/lt.cycles[sub])
	}
	o.set("traffic.generate_ns_per_cycle", float64(lt.generate.Nanoseconds())/lt.allCycles)
	o.set("noc.offer_ns_per_packet", float64(lt.offer.Nanoseconds())/lt.packets)
	o.set("stats.record_ns_per_packet", float64(lt.record.Nanoseconds())/lt.recorded)
	o.set("alloc.objects_per_cycle", float64(lt.objects)/lt.allCycles)
	return wall, lt.tick["core"]
}

// replay runs one job through the run protocol of experiment.RunInstrumented
// (warm up until source queues stabilize, tag the sample, drain) for the
// job's cycle count, and lists where its sampled latencies differ from the
// untraced result.
func replay(lt *loopTimes, j harness.Job, want experiment.Result) []string {
	s := j.EffectiveSpec()
	sub := substrate(s.Flow)
	lat := stats.NewLatencyStats()
	hooks := &noc.Hooks{PacketDelivered: func(p *noc.Packet, now sim.Cycle) {
		if !p.Sampled {
			return
		}
		t := time.Now()
		lat.Record(now - p.CreatedAt)
		lt.record += time.Since(t)
		lt.recorded++
	}}
	net, mesh := experiment.NewNetwork(s, hooks)
	gens := generators(s, mesh, j.Load)
	stab := stats.NewStabilizer(s.WarmupCycles/4+1, 0.10)
	warming, tagged := true, 0
	var tick time.Duration
	for now := sim.Cycle(0); now < want.Cycles; now++ {
		if warming && now >= s.WarmupCycles && (now >= s.MaxWarmupCycles || stab.Stable()) {
			warming = false
		}
		tg := time.Now()
		var offer time.Duration
		for _, g := range gens {
			p := g.Generate(now)
			if p == nil {
				continue
			}
			if !warming && tagged < s.SamplePackets {
				p.Sampled = true
				tagged++
			}
			to := time.Now()
			net.Offer(p)
			offer += time.Since(to)
			lt.packets++
		}
		tt := time.Now()
		lt.generate += tt.Sub(tg) - offer
		lt.offer += offer
		rec := lt.record
		net.Tick(now)
		tick += time.Since(tt) - (lt.record - rec)
		if warming {
			stab.Observe(net.SourceQueueLen())
		}
	}
	lt.tick[sub] += tick
	lt.cycles[sub] += float64(want.Cycles)
	lt.allCycles += float64(want.Cycles)
	if int(lat.N()) != want.SampledDelivered || lat.Mean() != want.AvgLatency || tagged != want.SampleSize {
		return []string{fmt.Sprintf("replay delivered %d of %d sampled at mean %v; untraced run delivered %d of %d at %v",
			lat.N(), tagged, lat.Mean(), want.SampledDelivered, want.SampleSize, want.AvgLatency)}
	}
	return nil
}

// generators builds the per-node traffic sources exactly as the run loop
// does: independent RNG streams split from the spec's seed.
func generators(s experiment.Spec, mesh topology.Mesh, load float64) []*traffic.Generator {
	root := sim.NewRNG(s.Seed ^ 0x9E3779B97F4A7C15)
	rate := traffic.PacketRateFor(mesh, load, s.PacketLen)
	var next noc.PacketID
	id := func() noc.PacketID { next++; return next }
	gens := make([]*traffic.Generator, mesh.N())
	for n := range gens {
		var proc traffic.Process = &traffic.ConstantRate{Rate: rate}
		if s.Bernoulli {
			proc = traffic.Bernoulli{Rate: rate}
		}
		gens[n] = traffic.NewGenerator(mesh, topology.NodeID(n), s.Pattern, proc, root.Split(), s.PacketLen, id)
	}
	return gens
}

// phasePass times each run's phases from the Publish hook's phase changes,
// under a CPU profile whose self time it attributes to layers.
func phasePass(ctx context.Context, o *outcome, ck *checker, jobs []harness.Job) error {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	phases := map[string]time.Duration{}
	for _, j := range jobs {
		cur, mark := "warmup", time.Now()
		ins := experiment.Instruments{PublishEvery: 64, Publish: func(lv experiment.Live) {
			if lv.Phase == cur {
				return
			}
			t := time.Now()
			phases[cur] += t.Sub(mark)
			cur, mark = lv.Phase, t
		}}
		r, err := experiment.RunInstrumented(ctx, j.EffectiveSpec(), j.Load, ins)
		ck.check("phases", j, r, err)
	}
	pprof.StopCPUProfile()
	o.set("experiment.warmup_s", phases["warmup"].Seconds())
	o.set("experiment.measure_s", phases["measure"].Seconds())
	o.set("experiment.drain_s", phases["drain"].Seconds())
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	for _, cat := range cpuCategories {
		o.set("cpu."+cat+"_frac", shares[cat])
	}
	return nil
}

// probePass runs every job with the program's metrics, profile and
// waterfall probes armed and sets the counts they report. It returns the
// pass's wall time. coreTick is the flit-reservation jobs' Tick time from
// the loop pass, which core.ns_per_work_unit divides by the work units.
func probePass(ctx context.Context, o *outcome, ck *checker, jobs []harness.Job, coreTick time.Duration) time.Duration {
	var ticks, active [profile.NumComponents]float64
	var phases [profile.NumPhases]float64
	var vcTicks, vcActive, coreCycles, hits, misses, late, ejected, stall, total float64
	var wall time.Duration
	for _, j := range jobs {
		s := j.EffectiveSpec()
		probe := &metrics.Probe{Reg: metrics.NewRegistry(0), Prof: profile.NewRegistry(0), WF: waterfall.New()}
		t := time.Now()
		r, err := experiment.RunInstrumented(ctx, s, j.Load, experiment.Instruments{Probe: probe})
		wall += time.Since(t)
		ck.check("probes", j, r, err)
		if err != nil {
			continue
		}
		stall += float64(r.WaterfallStall)
		total += float64(r.WaterfallTotal)
		switch substrate(s.Flow) {
		case "core":
			coreCycles += float64(r.Cycles)
			for _, n := range probe.Prof.Nodes {
				for c := range n.Ticks {
					ticks[c] += float64(n.Ticks[c])
					active[c] += float64(n.Active[c])
				}
				for p := range n.Phases {
					phases[p] += float64(n.Phases[p])
				}
			}
			for _, n := range probe.Reg.Nodes {
				hits += float64(n.ResHits)
				misses += float64(n.ResMisses)
				late += float64(n.LateReservations)
				ejected += float64(n.Ejected)
			}
		case "vcrouter":
			for _, n := range probe.Prof.Nodes {
				vcTicks += float64(n.Ticks[profile.CompRouter])
				vcActive += float64(n.Active[profile.CompRouter])
			}
		}
	}
	if total > 0 {
		o.set("waterfall.stall_frac", stall/total)
	}
	if vcTicks > 0 {
		o.set("vcrouter.router_idle_frac", 1-vcActive/vcTicks)
	}
	if coreCycles > 0 {
		o.set("core.router_idle_frac", 1-active[profile.CompRouter]/ticks[profile.CompRouter])
		o.set("core.ni_idle_frac", 1-active[profile.CompNI]/ticks[profile.CompNI])
		o.set("core.sink_idle_frac", 1-active[profile.CompSink]/ticks[profile.CompSink])
		var work float64
		for p, name := range []string{"sched", "arb", "switch", "credit"} {
			o.set("core."+name+"_work_per_cycle", phases[p]/coreCycles)
			work += phases[p]
		}
		o.set("core.ns_per_work_unit", float64(coreTick.Nanoseconds())/work)
		o.set("core.res_hit_ratio", hits/(hits+misses))
		o.set("core.late_res_per_kflit", late/(ejected/1000))
	}
	return wall
}

// harnessLayer times job hashing and result marshalling over the jobs, and
// Put and Get on a fresh result database (fsync on every Put, the service
// default).
func harnessLayer(o *outcome, jobs []harness.Job, results []experiment.Result, tiny bool) error {
	reps := 200
	if tiny {
		reps = 20
	}
	var hashes, marshals []float64
	var lineBytes float64
	for k := 0; k < reps; k++ {
		for i, j := range jobs {
			t := time.Now()
			h := j.Hash()
			t2 := time.Now()
			line, err := harness.MarshalEntry(j, h, results[i])
			marshals = append(marshals, float64(time.Since(t2).Nanoseconds())/1e3)
			hashes = append(hashes, float64(t2.Sub(t).Nanoseconds())/1e3)
			if err != nil {
				return fmt.Errorf("marshal: %w", err)
			}
			if k == 0 {
				lineBytes += float64(len(line))
			}
		}
	}
	o.set("harness.hash_us", median(hashes))
	o.set("harness.marshal_us", median(marshals))
	o.set("harness.line_bytes", lineBytes/float64(len(jobs)))

	dir, err := os.MkdirTemp("", "perfbench-db-")
	if err != nil {
		return fmt.Errorf("database: %w", err)
	}
	defer os.RemoveAll(dir)
	db, err := service.OpenDB(dir, service.DBOptions{})
	if err != nil {
		return fmt.Errorf("database: %w", err)
	}
	defer db.Close()
	var puts, gets []float64
	for k := 0; k < 3; k++ {
		for i, j := range jobs {
			h := j.Hash()
			t := time.Now()
			if err := db.Put(j, h, results[i]); err != nil {
				return fmt.Errorf("database: %w", err)
			}
			puts = append(puts, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Hash()
	}
	const batch = 1000
	for k := 0; k < reps/4+1; k++ {
		t := time.Now()
		for n := 0; n < batch; n++ {
			if _, ok := db.Get(keys[n%len(keys)]); !ok {
				return fmt.Errorf("database: stored result %s not found", jobKey(jobs[n%len(keys)]))
			}
		}
		gets = append(gets, float64(time.Since(t).Nanoseconds())/1e3/batch)
	}
	o.set("service.db_put_us", median(puts))
	o.set("service.db_get_us", median(gets))
	return nil
}

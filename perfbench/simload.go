package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/service"
)

// jobRun is one untraced execution of a job through harness.RunJobs.
type jobRun struct {
	res   experiment.Result
	wall  time.Duration
	alloc memSample
}

// execJob runs one job alone through harness.RunJobs with one worker,
// timing it and counting its allocations. It collects garbage first, so
// no job pays for its predecessor's garbage.
func execJob(ctx context.Context, j harness.Job) (jobRun, error) {
	runtime.GC()
	m0 := readMem()
	t0 := time.Now()
	jrs, _ := harness.RunJobs(ctx, []harness.Job{j}, harness.Options{Workers: 1, Timeout: jobTimeout})
	wall := time.Since(t0)
	alloc := readMem().sub(m0)
	if jrs[0].Err != "" {
		return jobRun{}, fmt.Errorf("%s", jrs[0].Err)
	}
	return jobRun{res: jrs[0].Result, wall: wall, alloc: alloc}, nil
}

// checker holds what every execution of a job must reproduce: the digest of
// its first execution in this run, and the committed digest when the run
// checks against one.
type checker struct {
	o     *outcome
	want  map[string]string // committed digests; nil when not checked
	first map[string]string
}

func newChecker(o *outcome, c config, workload string) (*checker, error) {
	ck := &checker{o: o, first: map[string]string{}}
	if c.digests != nil {
		want, err := loadDigests(workload, c.digests)
		if err != nil {
			return nil, err
		}
		if want == nil {
			want = map[string]string{}
		}
		ck.want = want
	}
	return ck, nil
}

// check records one execution of j as an operation: it fails when the run
// errored or its result fails verify.
func (ck *checker) check(what string, j harness.Job, r experiment.Result, err error) {
	what = fmt.Sprintf("%s %s", what, jobKey(j))
	if err != nil {
		ck.o.op(what, err.Error())
		return
	}
	ck.o.op(what, ck.verify(j, r)...)
}

// verify lists what is wrong with a result of j: a sample that is not the
// one requested, a digest different from the job's first execution in this
// run, or one different from the committed digest.
func (ck *checker) verify(j harness.Job, r experiment.Result) []string {
	key := jobKey(j)
	var problems []string
	d := digest(r)
	if r.SampleSize != j.Spec.SamplePackets || r.Cycles <= 0 {
		problems = append(problems, fmt.Sprintf("%s: sample %d of %d in %d cycles", key, r.SampleSize, j.Spec.SamplePackets, r.Cycles))
	}
	if f, ok := ck.first[key]; !ok {
		ck.first[key] = d
	} else if f != d {
		problems = append(problems, fmt.Sprintf("%s: digest %s differs from this run's first execution %s", key, d, f))
	}
	if ck.want != nil && ck.want[key] != d {
		problems = append(problems, fmt.Sprintf("%s: digest %s, committed %q", key, d, ck.want[key]))
	}
	return problems
}

// hitsPerJob is how many cached resolutions of the job set follow each
// job of a simulation workload after the first round (and make the block
// that ends the first round).
func hitsPerJob(tiny bool) int {
	if tiny {
		return 10
	}
	return 40
}

// runSimWorkload runs fr_mesh or lineage: rounds of the whole job set, one
// job at a time through harness.RunJobs, until the budget is spent; a round
// that would overrun it by more than half its own length is not started.
//
// The first round warms the process up and measures memory: each job runs
// after the heap has been returned to the OS and the peak resident set
// count reset, and its results become the run's reference. Its times are
// not used (it runs 20-35% slower than later rounds) unless it is the only
// round. After it every result is stored in a fresh result database, and
// each later job is followed by one set-up measurement and a few cached
// resolutions of the whole set, so that simulation, hits and set-up are
// all sampled across the whole run rather than in one stretch of the
// host's varying speed. Between jobs the host-speed
// reference kernel is sampled, which scales the host times to the reference
// speed (hostref.go).
//
// hit_ms_p50 is an end-to-end metric of every workload. These workloads
// serve no HTTP, so here it is the dedup-hit path without it: the job set
// resolved through harness.RunJobs from a result database.
func runSimWorkload(ctx context.Context, c config, o *outcome) error {
	jobs := simJobs(c.workload, c.seed, c.tiny)
	ck, err := newChecker(o, c, c.workload)
	if err != nil {
		return err
	}
	if c.trace {
		return traceSimWorkload(ctx, c, o, ck, jobs)
	}
	budget := time.Duration(c.seconds * float64(time.Second))
	start := time.Now()
	runs := make([][]jobRun, len(jobs))
	peaks := make([]float64, len(jobs))
	results := make([]experiment.Result, len(jobs))
	setups := []float64{setupNetworks(jobs)}
	ref := newHostRef(1)
	for i, j := range jobs {
		ref.keepUp()
		debug.FreeOSMemory()
		resetPeakMem()
		r, err := execJob(ctx, j)
		peaks[i] = peakMemMB()
		ck.check("run", j, r.res, err)
		if err != nil {
			// Without a first result there is no reference to run against.
			return fmt.Errorf("job %s: %w", jobKey(j), err)
		}
		runs[i], results[i] = []jobRun{r}, r.res
		fmt.Fprintf(c.out, "job %-10s cycles=%-6d digest=%s\n", jobKey(j), r.res.Cycles, digest(r.res))
	}
	db, closeDB, err := storeResults(jobs, results)
	if err != nil {
		return err
	}
	defer closeDB()
	hits := cachedHits(ctx, ck, db, jobs, hitsPerJob(c.tiny))
	ref.warmedUp()
	last := time.Since(start)
	for time.Since(start)+last/2 < budget && ctx.Err() == nil {
		t := time.Now()
		for i, j := range jobs {
			ref.keepUp()
			r, err := execJob(ctx, j)
			ck.check("run", j, r.res, err)
			if err != nil {
				continue
			}
			runs[i] = append(runs[i], r)
			setups = append(setups, setupNetworks(jobs))
			hits = append(hits, cachedHits(ctx, ck, db, jobs, hitsPerJob(c.tiny))...)
		}
		last = time.Since(t)
	}
	rates, allocs := make([]float64, len(jobs)), make([]float64, len(jobs))
	for i := range jobs {
		timed := runs[i]
		if len(timed) > 1 {
			timed = timed[1:]
		}
		walls, bytes := make([]float64, len(timed)), make([]float64, len(timed))
		for k, r := range timed {
			walls[k], bytes[k] = r.wall.Seconds(), float64(r.alloc.bytes)
		}
		cycles := float64(results[i].Cycles)
		rates[i] = cycles / median(walls)
		allocs[i] = median(bytes) / cycles
	}
	o.set("peak_mem_mb", median(peaks))
	o.set("alloc_bytes_per_cycle", geomean(allocs))
	ref.report(c.out, o, geomean(rates), median(setups), median(hits))
	return nil
}

// geomean is the geometric mean of positive values. Per-job rates are
// combined by it so that every job weighs the same whatever its length:
// the seed moves how many cycles a job needs to stabilize and drain, and a
// cycle-weighted sum would move with that mix rather than with the
// simulator's speed.
func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// setupNetworks is the summed experiment.NewNetwork time, in seconds, for
// every job's spec.
func setupNetworks(jobs []harness.Job) float64 {
	var total time.Duration
	for _, j := range jobs {
		t := time.Now()
		experiment.NewNetwork(j.EffectiveSpec(), nil)
		total += time.Since(t)
	}
	return total.Seconds()
}

// storeResults puts every job's result in a fresh result database; the
// returned func closes and removes it.
func storeResults(jobs []harness.Job, results []experiment.Result) (*service.DB, func(), error) {
	dir, err := os.MkdirTemp("", "perfbench-db-")
	if err != nil {
		return nil, nil, fmt.Errorf("result database: %w", err)
	}
	db, err := service.OpenDB(dir, service.DBOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, fmt.Errorf("result database: %w", err)
	}
	closeDB := func() {
		db.Close()
		os.RemoveAll(dir)
	}
	for i, j := range jobs {
		if err := db.Put(j, j.Hash(), results[i]); err != nil {
			closeDB()
			return nil, nil, fmt.Errorf("result database: %w", err)
		}
	}
	return db, closeDB, nil
}

// cachedHits resolves the job set n times through harness.RunJobs with db
// as its store and returns each resolution's latency in milliseconds. Every
// job must be served from the store, with a result that passes the checker.
func cachedHits(ctx context.Context, ck *checker, db *service.DB, jobs []harness.Job, n int) []float64 {
	hits := make([]float64, 0, n)
	for k := 0; k < n && ctx.Err() == nil; k++ {
		t := time.Now()
		jrs, _ := harness.RunJobs(ctx, jobs, harness.Options{Workers: 1, Store: db})
		hits = append(hits, float64(time.Since(t).Nanoseconds())/1e6)
		var problems []string
		for i, jr := range jrs {
			if !jr.Cached || jr.Err != "" {
				problems = append(problems, fmt.Sprintf("%s: cached=%v err=%q", jobKey(jobs[i]), jr.Cached, jr.Err))
				continue
			}
			problems = append(problems, ck.verify(jobs[i], jr.Result)...)
		}
		ck.o.op("cached resolution", problems...)
	}
	return hits
}

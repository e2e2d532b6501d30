package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"frfc/internal/harness"
	"frfc/internal/service"
	"frfc/internal/status"
)

// serviceWorkers is the campaign service's pool size: nproc on the
// two-CPU host the benchmark was defined on.
const serviceWorkers = 2

// warmHits is how many identical resubmissions follow each cold campaign.
// The service keeps every campaign registered and its status push walks
// them all, so hit latency grows with the number submitted: the count is
// fixed per service instance rather than left to the time budget, so that
// every host measures hits against the same campaign count. A run makes
// several rounds, so it measures well over a thousand hits.
func warmHits(tiny bool) int {
	if tiny {
		return 50
	}
	return 250
}

// serviceRound is one in-process campaign service over a fresh result
// database: OpenDB (fsync on every Put, frserve's default), a status server
// for /metrics, service.New with serviceWorkers workers, and the REST
// handler served by httptest.
type serviceRound struct {
	dir    string
	db     *service.DB
	st     *status.Server
	svc    *service.Service
	ts     *httptest.Server
	client *http.Client
	setup  time.Duration
}

func openRound() (*serviceRound, error) {
	dir, err := os.MkdirTemp("", "perfbench-svc-")
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	t := time.Now()
	db, err := service.OpenDB(dir, service.DBOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("service: %w", err)
	}
	st, err := status.Serve("127.0.0.1:0")
	if err != nil {
		db.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("service: %w", err)
	}
	svc := service.New(db, service.Options{Workers: serviceWorkers, Status: st, Timeout: jobTimeout})
	ts := httptest.NewServer(svc.Handler())
	r := &serviceRound{dir: dir, db: db, st: st, svc: svc, ts: ts, client: ts.Client(), setup: time.Since(t)}
	return r, nil
}

// close stops the servers and the worker pool and removes the database.
func (r *serviceRound) close() {
	r.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.svc.Close(ctx) //nolint:errcheck // a pool that does not drain in 10 s is reported by the leak of its campaign, not here
	r.st.Close()
	r.db.Close()
	os.RemoveAll(r.dir)
}

// submit POSTs a campaign and returns its id.
func (r *serviceRound) submit(body []byte) (string, error) {
	resp, err := r.client.Post(r.ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &v); err != nil || v.ID == "" {
		return "", fmt.Errorf("submit: no campaign id in %q", b)
	}
	return v.ID, nil
}

// get fetches a URL and returns the body of a 200 response.
func (r *serviceRound) get(url string) ([]byte, error) {
	resp, err := r.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// results waits for a campaign and returns its JSONL results stream.
func (r *serviceRound) results(id string) ([]byte, error) {
	return r.get(r.ts.URL + "/campaigns/" + id + "/results?wait=1")
}

// scrape reads the status server's /metrics.
func (r *serviceRound) scrape() error {
	b, err := r.get("http://" + r.st.Addr() + "/metrics")
	if err == nil && !bytes.Contains(b, []byte("frfc_service_dedup_hits_total")) {
		err = fmt.Errorf("/metrics carries no service counters")
	}
	return err
}

// coldRun is one cold campaign: its wall time from POST to the last results
// line, the results stream, and the jobs as the service ran them.
type coldRun struct {
	wall   time.Duration
	alloc  memSample
	body   []byte
	jobs   []harness.JobResult
	cycles float64
}

// cold submits the campaign to an empty service and waits for its results,
// checking every result line: the job ran, it reproduces the first cold
// run's result, and at the default seed it equals the golden store.
func (r *serviceRound) cold(body []byte, ck *checker, golden map[string]map[string]any) (coldRun, error) {
	m0 := readMem()
	t := time.Now()
	id, err := r.submit(body)
	if err != nil {
		return coldRun{}, err
	}
	out, err := r.results(id)
	if err != nil {
		return coldRun{}, err
	}
	cr := coldRun{wall: time.Since(t), alloc: readMem().sub(m0), body: out}
	c, ok := r.svc.Get(id)
	if !ok {
		return coldRun{}, fmt.Errorf("campaign %s vanished", id)
	}
	cr.jobs = c.Results()
	lines := bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n"))
	if len(lines) != len(cr.jobs) {
		ck.o.op("cold campaign", fmt.Sprintf("%d result lines for %d jobs", len(lines), len(cr.jobs)))
	}
	seen := map[string]bool{}
	for i, jr := range cr.jobs {
		cr.cycles += float64(jr.Result.Cycles)
		var problems []string
		switch {
		case jr.Err != "" || jr.Hash == "":
			problems = append(problems, fmt.Sprintf("job failed: %q", jr.Err))
		default:
			problems = ck.verify(jr.Job, jr.Result)
		}
		if golden != nil && i < len(lines) {
			h, p := matchGolden(lines[i], golden)
			seen[h] = true
			problems = append(problems, p...)
		}
		ck.o.op("cold "+jobKey(jr.Job), problems...)
	}
	for h := range golden {
		if !seen[h] {
			ck.o.op("golden "+h, "no result line")
		}
	}
	return cr, nil
}

// loadGolden reads a golden store, keyed by job hash.
func loadGolden(path string) (map[string]map[string]any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("golden store: %w", err)
	}
	defer f.Close()
	g := map[string]map[string]any{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		v, err := decodeLine(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("golden store %s: %w", path, err)
		}
		h, _ := v["hash"].(string)
		g[h] = v
	}
	return g, sc.Err()
}

func decodeLine(b []byte) (map[string]any, error) {
	d := json.NewDecoder(bytes.NewReader(b))
	d.UseNumber() // compare numbers by their exact text
	var v map[string]any
	err := d.Decode(&v)
	return v, err
}

// matchGolden compares one results line with the golden line of the same
// hash on every field except the Prof* self-profiling summary, which the
// golden store was recorded with and the service does not arm.
func matchGolden(line []byte, golden map[string]map[string]any) (string, []string) {
	v, err := decodeLine(line)
	if err != nil {
		return "", []string{fmt.Sprintf("undecodable line: %v", err)}
	}
	h, _ := v["hash"].(string)
	g, ok := golden[h]
	if !ok {
		return h, []string{fmt.Sprintf("hash %s is not in the golden store", h)}
	}
	var problems []string
	for k, want := range g {
		got := v[k]
		if k == "result" {
			gr, _ := want.(map[string]any)
			vr, _ := got.(map[string]any)
			for f, w := range gr {
				if !strings.HasPrefix(f, "Prof") && !reflect.DeepEqual(vr[f], w) {
					problems = append(problems, fmt.Sprintf("%s: result.%s = %v, golden %v", h, f, vr[f], w))
				}
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			problems = append(problems, fmt.Sprintf("%s: %s = %v, golden %v", h, k, got, want))
		}
	}
	return h, problems
}

// warm resubmits the campaign n times; each resubmission must be answered
// from the result database with the cold results byte for byte. It returns
// the round trip, submit and results times of each, in milliseconds.
func (r *serviceRound) warm(body []byte, cold coldRun, n int, o *outcome) (trip, submit, results []float64) {
	before := r.db.Stats().Misses
	for k := 0; k < n; k++ {
		t := time.Now()
		id, err := r.submit(body)
		t2 := time.Now()
		var out []byte
		if err == nil {
			out, err = r.results(id)
		}
		t3 := time.Now()
		switch {
		case err != nil:
			o.op("warm resubmission", err.Error())
			continue
		case !bytes.Equal(out, cold.body):
			o.op("warm resubmission", "results differ from the cold campaign's")
			continue
		}
		o.op("warm resubmission")
		trip = append(trip, float64(t3.Sub(t).Nanoseconds())/1e6)
		submit = append(submit, float64(t2.Sub(t).Nanoseconds())/1e6)
		results = append(results, float64(t3.Sub(t2).Nanoseconds())/1e6)
	}
	if after := r.db.Stats().Misses; after != before {
		o.op("warm dedup", fmt.Sprintf("%d resubmitted jobs missed the result database", after-before))
	}
	return trip, submit, results
}

// campaignSetup prepares the campaign workload's request body, checker and
// golden store.
func campaignSetup(c config, req service.SweepRequest, o *outcome) ([]byte, *checker, map[string]map[string]any, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("encode request: %w", err)
	}
	ck := &checker{o: o, first: map[string]string{}}
	var golden map[string]map[string]any
	if c.golden != "" {
		if golden, err = loadGolden(c.golden); err != nil {
			return nil, nil, nil, err
		}
	}
	return body, ck, golden, nil
}

// runCampaignWorkload runs campaign_service: rounds of (set up a service
// over an empty database, run the cold campaign, resubmit it warmHits
// times, scrape /metrics, tear down) until the budget is spent. Each round
// starts by sampling the host-speed reference kernel, which scales the host
// times to the reference speed (hostref.go).
func runCampaignWorkload(ctx context.Context, c config, o *outcome) error {
	req := campaignRequest(c.seed, c.tiny)
	if c.trace {
		return traceCampaign(ctx, c, o, req, warmHits(c.tiny), true)
	}
	body, ck, golden, err := campaignSetup(c, req, o)
	if err != nil {
		return err
	}
	budget := time.Duration(c.seconds * float64(time.Second))
	var setups, colds, allocs, peaks, hits []float64
	var cycles float64
	ref := newHostRef(serviceWorkers)
	start := time.Now()
	var last time.Duration
	for round := 0; round == 0 || time.Since(start)+last/2 < budget; round++ {
		if ctx.Err() != nil {
			break
		}
		t := time.Now()
		r, err := openRound()
		if err != nil {
			return err
		}
		ref.keepUp()
		debug.FreeOSMemory()
		resetPeakMem()
		cr, err := r.cold(body, ck, golden)
		if err != nil {
			o.op("cold campaign", err.Error())
			r.close()
			continue
		}
		if round == 0 {
			// The golden store is checked once; later rounds are checked
			// against the first by the digests.
			golden = nil
		}
		setups = append(setups, r.setup.Seconds())
		colds = append(colds, cr.wall.Seconds())
		allocs = append(allocs, float64(cr.alloc.bytes))
		cycles = cr.cycles
		trip, _, _ := r.warm(body, cr, warmHits(c.tiny), o)
		hits = append(hits, trip...)
		if err := r.scrape(); err != nil {
			o.op("scrape", err.Error())
		} else {
			o.op("scrape")
		}
		peaks = append(peaks, peakMemMB())
		r.close()
		last = time.Since(t)
	}
	if len(colds) == 0 {
		return fmt.Errorf("no cold campaign completed")
	}
	o.set("peak_mem_mb", median(peaks))
	o.set("alloc_bytes_per_cycle", median(allocs)/cycles)
	ref.report(c.out, o, cycles/median(colds), median(setups), median(hits))
	return nil
}

// traceCampaign is the traced run of a campaign: one service round with
// the warm phase split into submit and results time, and /metrics scrapes;
// then a pool pass and the traced job passes over the campaign's jobs,
// which must reproduce the service's results.
//
// own is false for the small campaign another workload's traced run uses to
// reach the service layers; it is never compared with the golden store.
func traceCampaign(ctx context.Context, c config, o *outcome, req service.SweepRequest, warmN int, own bool) error {
	body, ck, golden, err := campaignSetup(c, req, o)
	if err != nil {
		return err
	}
	if !own {
		golden = nil
	}
	r, err := openRound()
	if err != nil {
		return err
	}
	cr, err := r.cold(body, ck, golden)
	if err != nil {
		r.close()
		o.op("cold campaign", err.Error())
		return err
	}
	_, submit, results := r.warm(body, cr, warmN, o)
	o.set("service.submit_ms", median(submit))
	o.set("service.results_ms", median(results))
	var scrapes []float64
	for k := 0; k < 50; k++ {
		t := time.Now()
		if err := r.scrape(); err != nil {
			o.op("scrape", err.Error())
			continue
		}
		scrapes = append(scrapes, float64(time.Since(t).Nanoseconds())/1e6)
	}
	o.op("scrapes")
	o.set("status.scrape_ms", median(scrapes))
	r.close()

	jobs := make([]harness.Job, len(cr.jobs))
	for i, jr := range cr.jobs {
		jobs[i] = jr.Job
	}
	poolPass(ctx, o, ck, jobs, req.Waterfall)
	return traceJobs(ctx, o, ck, jobs, c.tiny || !own)
}

// poolPass runs the campaign's jobs through harness.RunJobs with the
// service's pool size, as its cold phase does, and sets the mean time from
// submission until a worker starts a job (Options.JobStarted) and the share
// of the pool's time spent running jobs. Every result must reproduce the
// service's.
func poolPass(ctx context.Context, o *outcome, ck *checker, jobs []harness.Job, wf bool) {
	var mu sync.Mutex
	var waited time.Duration
	var started int
	t := time.Now()
	jrs, _ := harness.RunJobs(ctx, jobs, harness.Options{
		Workers: serviceWorkers, Timeout: jobTimeout, Waterfall: wf,
		JobStarted: func(harness.Job) {
			mu.Lock()
			waited += time.Since(t)
			started++
			mu.Unlock()
		},
	})
	wall := time.Since(t)
	var ran time.Duration
	for _, jr := range jrs {
		var err error
		if jr.Err != "" {
			err = fmt.Errorf("%s", jr.Err)
		}
		ck.check("pool", jr.Job, jr.Result, err)
		ran += jr.Elapsed
	}
	if started > 0 {
		o.set("harness.queue_wait_ms", float64(waited.Nanoseconds())/1e6/float64(started))
	}
	o.set("harness.worker_busy_frac", ran.Seconds()/(serviceWorkers*wall.Seconds()))
}

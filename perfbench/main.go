// Command perfbench is the simulator's benchmark. One invocation runs one
// workload for a host-time budget, checks every simulated result, and prints
// each metric by name with its unit. The last line of standard output is a
// JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a traced
// pass reports the per-layer ones. Run it from the repository root through
// run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload fr_mesh --seed 0 --seconds 35 --trace 0
//
// README.md beside this file explains the workloads, the metrics and which
// layer each per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runDeadline caps one invocation below the 180 s a run may take; jobs still
// running when it fires are cancelled and count as failures.
const runDeadline = 170 * time.Second

// config is one invocation's settings: its flags and its references.
type config struct {
	out      io.Writer // human-readable report lines
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	// digests and golden are the references results are checked against:
	// the committed per-job digests and the golden campaign store, set at
	// the default seed and full scale (nil and "" leave them unchecked).
	digests []byte
	golden  string
}

// goldenPath is the store the default-seed campaign must reproduce,
// relative to the repository root the benchmark runs from.
const goldenPath = "benchmarks/campaign.jsonl"

func run(args []string, stdout, stderr io.Writer) int {
	c, code := parse(args, stdout, stderr)
	if code != 0 {
		return code
	}
	if c.seed == 0 && !c.tiny {
		c.digests, c.golden = committedDigests, goldenPath
	}
	return execute(c, stderr)
}

// parse reads the flags; a nonzero code means they were not valid.
func parse(args []string, stdout, stderr io.Writer) (config, int) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := config{out: stdout}
	var trace int
	fs.StringVar(&c.workload, "workload", "", "fr_mesh, lineage or campaign_service")
	fs.Uint64Var(&c.seed, "seed", 0, "input seed; 0 keeps the program's default seed, which the committed digests and golden store hold")
	fs.Float64Var(&c.seconds, "seconds", 10, "host seconds to measure for (the traced run does one pass of each kind instead)")
	fs.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics; 1 runs the traced pass and reports per-layer metrics")
	fs.BoolVar(&c.tiny, "tiny", false, "shrink every workload (self-tests)")
	if err := fs.Parse(args); err != nil {
		return c, 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1 (got %d)\n", trace)
		return c, 2
	}
	if c.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be > 0 (got %g)\n", c.seconds)
		return c, 2
	}
	c.trace = trace == 1
	return c, 0
}

// execute runs one workload and prints its report; it returns the exit code.
func execute(c config, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	o := newOutcome(stderr)
	fmt.Fprintln(c.out, stamp(c.seed))
	var err error
	switch c.workload {
	case "fr_mesh", "lineage":
		err = runSimWorkload(ctx, c, o)
	case "campaign_service":
		err = runCampaignWorkload(ctx, c, o)
	default:
		err = fmt.Errorf("unknown workload %q (want fr_mesh, lineage or campaign_service)", c.workload)
	}
	if err != nil {
		// A harness failure (no temp dir, no listener) leaves nothing
		// measured: report it without a result line.
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return o.print(c.out)
}

// metric is one reported value in the summary line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome accumulates one invocation's metrics and its operation ledger:
// every job run, request or result check is one attempted operation, and
// any failed check fails it.
type outcome struct {
	log       io.Writer
	metrics   map[string]metric
	attempted int
	failed    int
	logged    int // failures written to log; the rest are only counted
}

// maxLogged caps the failure lines one invocation writes.
const maxLogged = 20

func newOutcome(log io.Writer) *outcome {
	return &outcome{log: log, metrics: map[string]metric{}}
}

// set records a metric; its unit comes from the units table, so a name
// missing there is a bug in this program.
func (o *outcome) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	o.metrics[name] = metric{Value: v, Unit: u}
}

// op records one attempted operation; it failed when any problem is given.
func (o *outcome) op(what string, problems ...string) {
	o.attempted++
	if len(problems) == 0 {
		return
	}
	o.failed++
	if o.logged++; o.logged > maxLogged {
		return
	}
	for _, p := range problems {
		fmt.Fprintf(o.log, "FAIL %s: %s\n", what, p)
	}
}

// absorb merges another outcome's operations and the metrics this one
// does not have yet.
func (o *outcome) absorb(x *outcome) {
	o.attempted += x.attempted
	o.failed += x.failed
	for k, v := range x.metrics {
		if _, ok := o.metrics[k]; !ok {
			o.metrics[k] = v
		}
	}
}

// print writes every metric as a "name value unit" line, the failure
// fraction, and the JSON summary line; it returns the exit code.
func (o *outcome) print(w io.Writer) int {
	names := make([]string, 0, len(o.metrics))
	for k := range o.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", k, o.metrics[k].Value, o.metrics[k].Unit)
	}
	frac := 1.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%-36s %14.6g %s  (%d of %d operations)\n", "failed_frac", frac, "frac", o.failed, o.attempted)
	correct := o.failed == 0 && o.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, o.attempted, o.failed, o.metrics})
	if err != nil {
		fmt.Fprintf(o.log, "perfbench: encode summary: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !correct {
		return 1
	}
	return 0
}

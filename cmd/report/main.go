// Command report turns campaign result stores and benchmark logs into a
// committed, human-readable BENCHMARK.md.
//
// Inputs are the JSONL stores a sweep writes with -out (one table per store,
// rows sorted by configuration and load) and the benchmark logs scripts/
// bench.sh maintains (latest vs baseline, with regression deltas). The
// output is deterministic — no timestamps, stable ordering — so re-running
// the command over unchanged inputs reproduces the committed file byte for
// byte, which is what makes the report reviewable in diffs.
//
// Malformed store lines are an error: the command exits non-zero naming the
// offending file and line number, so a corrupted store cannot silently
// produce a report missing rows. Pass -lenient to restore the old
// skip-and-count behavior (useful over stores healed after a crash).
//
// The committed store benchmarks/campaign.jsonl is the golden campaign, the
// simulator's behaviour contract. This command regenerates it, and
// re-simulating must reproduce every line byte for byte (compare sorted
// lines: the store is written in completion order):
//
//	sweep -configs FR6,VC8,WH,SAF,VCT,CS -from 0.2 -to 0.6 -step 0.2 \
//	      -sample 400 -warmup 600 -profile p.json -waterfall w.json -out g.jsonl
//
// TestGoldenCampaignReplay (golden_test.go) replays it on every go test.
//
// Usage:
//
//	report -out BENCHMARK.md benchmarks/campaign.jsonl
//	report -bench benchmarks/latest.txt -baseline benchmarks/baseline.txt \
//	       -bench-json benchmarks/latest.json -out BENCHMARK.md benchmarks/campaign.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"frfc/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchPath    = fs.String("bench", "", "benchmark log to report (go test -bench output, e.g. benchmarks/latest.txt)")
		baselinePath = fs.String("baseline", "", "baseline benchmark log to diff -bench against (e.g. benchmarks/baseline.txt)")
		benchJSON    = fs.String("bench-json", "", "machine-readable benchmark summary from scripts/bench.sh (benchmarks/latest.json); adds allocation columns")
		outPath      = fs.String("out", "", "write the report to this file (default: stdout)")
		lenient      = fs.Bool("lenient", false, "skip undecodable store lines (counting them) instead of failing with the offending line number")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "report: "+format+"\n", a...)
		return 2
	}
	stores := fs.Args()
	if len(stores) == 0 && *benchPath == "" {
		return fail("nothing to report: name at least one JSONL result store or -bench log")
	}

	sources := make([]report.Source, 0, len(stores))
	for _, path := range stores {
		src, err := report.ReadStoreFile(path, *lenient)
		if err != nil {
			return fail("%v", err)
		}
		sources = append(sources, src)
	}

	var bench *report.Bench
	if *benchPath != "" {
		latest, order, err := report.ParseBenchFile(*benchPath)
		if err != nil {
			return fail("%v", err)
		}
		bench = &report.Bench{
			Path: *benchPath, BaselinePath: *baselinePath,
			Latest: latest, Order: order,
		}
		if *baselinePath != "" {
			bench.Base, _, err = report.ParseBenchFile(*baselinePath)
			if err != nil {
				return fail("%v", err)
			}
		}
		if *benchJSON != "" {
			bench.Allocs, err = report.ParseBenchJSONFile(*benchJSON)
			if err != nil {
				return fail("%v", err)
			}
		}
	}

	out := report.Render(sources, bench)
	if *outPath == "" {
		if _, err := stdout.Write(out); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	if err := os.WriteFile(*outPath, out, 0o644); err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stderr, "report: wrote %s (%d bytes)\n", *outPath, len(out))
	return 0
}

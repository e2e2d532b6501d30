package frfc_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"frfc"
)

// TestGoldenCampaignReplay is the behaviour contract: it re-simulates the
// committed golden campaign, benchmarks/campaign.jsonl, which was recorded
// with
//
//	go run ./cmd/sweep -configs FR6,VC8,WH,SAF,VCT,CS -from 0.2 -to 0.6 -step 0.2 \
//	    -sample 400 -warmup 600 -profile p.json -waterfall w.json -out g.jsonl
//
// through the public calls that command makes — the same specs, the same
// accumulated loads, self-profiling and latency provenance armed — and
// requires all 18 store lines, sorted, to be byte-identical. Any change to a
// simulated result, to a job hash or to the line encoding fails it.
func TestGoldenCampaignReplay(t *testing.T) {
	golden, err := os.ReadFile("benchmarks/campaign.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	specs := []frfc.Spec{
		frfc.FR6(frfc.FastControl, 5),
		frfc.VC8(frfc.FastControl, 5),
		frfc.WormholeSpec(frfc.FastControl, 8, 5),
		frfc.StoreAndForwardSpec(frfc.FastControl, 2, 5),
		frfc.CutThroughSpec(frfc.FastControl, 2, 5),
		frfc.CircuitSpec(frfc.FastControl, 5),
	}
	var loads []float64
	for l := 0.2; l <= 0.6+1e-9; l += 0.2 { // cmd/sweep's -from/-to/-step loop
		loads = append(loads, l)
	}
	var jobs []frfc.Job
	for _, s := range specs {
		for _, l := range loads {
			jobs = append(jobs, frfc.Job{Spec: s.WithSampling(400, 600), Load: l})
		}
	}
	out := filepath.Join(t.TempDir(), "g.jsonl")
	if _, err := frfc.RunJobs(context.Background(), jobs, frfc.ParallelOptions{
		Workers: 2, ResultPath: out, Profile: true, Waterfall: true,
	}); err != nil {
		t.Fatal(err)
	}
	replayed, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, got := sortedLines(golden), sortedLines(replayed)
	if len(want) != 18 || len(got) != len(want) {
		t.Fatalf("golden has %d lines, replay %d; want 18 each", len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("sorted line %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

func sortedLines(b []byte) [][]byte {
	lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
	slices.SortFunc(lines, bytes.Compare)
	return lines
}

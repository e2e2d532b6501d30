package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs the benchmark in-process at tiny scale and decodes its last
// output line. refs, when given, sets the references the run checks against.
func runTiny(t *testing.T, refs func(*config), args ...string) (int, summary) {
	t.Helper()
	var out, errs bytes.Buffer
	c, code := parse(append([]string{"--tiny", "--seconds", "1"}, args...), &out, &errs)
	if code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errs.String())
	}
	if refs != nil {
		refs(&c)
	}
	code = execute(c, &errs)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("%v: last line %q is not a summary: %v\nstderr:\n%s", args, lines[len(lines)-1], err, errs.String())
	}
	return code, s
}

// TestEveryNamePrinted runs every workload untraced and traced at tiny
// scale: each must succeed and print exactly the metrics BENCHMARK.json
// lists for its mode, with the listed units.
func TestEveryNamePrinted(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			mode := "0"
			for _, m := range s.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				mode = "1"
				want = map[string]string{}
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			code, sum := runTiny(t, nil, "--workload", w.Name, "--trace", mode)
			if code != 0 || !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
				t.Errorf("%s trace %s: exit %d, correct %v, %d of %d failed", w.Name, mode, code, sum.Correct, sum.Failed, sum.Attempted)
			}
			for name, unit := range want {
				m, ok := sum.Metrics[name]
				if !ok {
					t.Errorf("%s trace %s: %s not printed", w.Name, mode, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace %s: %s in %q, BENCHMARK.json says %q", w.Name, mode, name, m.Unit, unit)
				}
			}
			for name := range sum.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace %s: %s printed but not listed in BENCHMARK.json", w.Name, mode, name)
				}
			}
			if traced && w.Name == "fr_mesh" && sum.Metrics["cpu.core_frac"].Value <= 0 {
				t.Errorf("fr_mesh profile attributes no CPU time to core")
			}
		}
	}
}

// TestPlantedDigestFails plants a wrong digest for every job: every
// operation must fail, and the run must exit nonzero.
func TestPlantedDigestFails(t *testing.T) {
	for _, w := range []string{"fr_mesh", "lineage"} {
		planted := map[string]map[string]string{w: {}}
		for _, j := range simJobs(w, 0, true) {
			planted[w][jobKey(j)] = "deadbeefdeadbeef"
		}
		b, err := json.Marshal(planted)
		if err != nil {
			t.Fatal(err)
		}
		code, sum := runTiny(t, func(c *config) { c.digests = b }, "--workload", w)
		if code == 0 || sum.Correct || sum.Attempted == 0 || sum.Failed != sum.Attempted {
			t.Errorf("%s with planted digests: exit %d, correct %v, %d of %d failed; want every operation failed",
				w, code, sum.Correct, sum.Failed, sum.Attempted)
		}
	}
}

// TestPlantedGoldenFails checks the campaign against a golden store that
// holds none of its results: the cold results must fail and the run must
// exit nonzero.
func TestPlantedGoldenFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.jsonl")
	if err := os.WriteFile(path, []byte(`{"hash":"0000000000000000","spec":"FR6","load":0.2,"result":{}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, sum := runTiny(t, func(c *config) { c.golden = path }, "--workload", "campaign_service")
	if code == 0 || sum.Correct || sum.Failed == 0 {
		t.Errorf("campaign with planted golden store: exit %d, correct %v, %d of %d failed", code, sum.Correct, sum.Failed, sum.Attempted)
	}
}

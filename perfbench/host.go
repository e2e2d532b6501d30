package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// units names every metric this program can report, with its unit. The
// end-to-end and per-layer lists in BENCHMARK.json are checked against it
// by the self-tests.
var units = map[string]string{
	// End to end (-trace 0).
	"sim_cycles_per_s":      "1/s",
	"alloc_bytes_per_cycle": "B/cycle",
	"peak_mem_mb":           "MB",
	"setup_s":               "s",
	"hit_ms_p50":            "ms",

	// Per layer (-trace 1): benchmark-owned tick loop.
	"core.tick_us_per_cycle":         "us/cycle",
	"vcrouter.tick_us_per_cycle":     "us/cycle",
	"wormhole.tick_us_per_cycle":     "us/cycle",
	"packetswitch.tick_us_per_cycle": "us/cycle",
	"circuit.tick_us_per_cycle":      "us/cycle",
	"traffic.generate_ns_per_cycle":  "ns/cycle",
	"noc.offer_ns_per_packet":        "ns/packet",
	"stats.record_ns_per_packet":     "ns/packet",
	"trace.sim_cycles_per_s":         "1/s",
	"trace.overhead_frac":            "frac",
	// Run phases, from Instruments.Publish phase changes.
	"experiment.warmup_s":  "s",
	"experiment.measure_s": "s",
	"experiment.drain_s":   "s",
	// The program's own probes.
	"core.router_idle_frac":      "frac",
	"core.ni_idle_frac":          "frac",
	"core.sink_idle_frac":        "frac",
	"core.sched_work_per_cycle":  "units/cycle",
	"core.arb_work_per_cycle":    "units/cycle",
	"core.switch_work_per_cycle": "units/cycle",
	"core.credit_work_per_cycle": "units/cycle",
	"core.ns_per_work_unit":      "ns/unit",
	"core.res_hit_ratio":         "frac",
	"core.late_res_per_kflit":    "1/kflit",
	"vcrouter.router_idle_frac":  "frac",
	"waterfall.stall_frac":       "frac",
	"probe.overhead_frac":        "frac",
	"alloc.objects_per_cycle":    "objects/cycle",
	"gc.cpu_frac":                "frac",
	"cpu.core_frac":              "frac",
	"cpu.sim_frac":               "frac",
	"cpu.baseline_frac":          "frac",
	"cpu.traffic_stats_frac":     "frac",
	"cpu.map_frac":               "frac",
	"cpu.gc_malloc_frac":         "frac",
	"harness.hash_us":            "us",
	"harness.marshal_us":         "us",
	"harness.line_bytes":         "B",
	"harness.queue_wait_ms":      "ms",
	"harness.worker_busy_frac":   "frac",
	"service.submit_ms":          "ms",
	"service.results_ms":         "ms",
	"service.db_get_us":          "us",
	"service.db_put_us":          "us",
	"status.scrape_ms":           "ms",
}

// stamp describes the host and build a number came from, so that a figure
// taken on one CPU is never read as a parallel one.
func stamp(seed uint64) string {
	return fmt.Sprintf("stamp seed=%d gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s",
		seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), commit())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the source under test: the git HEAD when the checkout is a
// repository, and always a digest of the Go sources, which identifies a
// checkout that is not one.
func commit() string {
	src := sourceDigest()
	if head := gitHead(); head != "" {
		return head[:min(12, len(head))] + "+src:" + src
	}
	return "src:" + src
}

func gitHead() string {
	b, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(line, " "); ok && r == ref {
			return h
		}
	}
	return ""
}

// sourceDigest hashes every Go source and module file under the working
// directory, skipping dot-directories (build output, VCS metadata).
func sourceDigest() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries are skipped
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		io.Copy(h, f) //nolint:errcheck // a short read changes the digest, which is all it reports
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// peakMemMB is the process's peak resident set (VmHWM) in MiB since the
// last resetPeakMem, or the runtime's total mapped memory where /proc is
// unavailable.
func peakMemMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakMem restarts the kernel's peak resident set count (VmHWM) from
// the current resident set, so that peakMemMB then reads the peak since
// the reset. Where the kernel does not allow it the count stays the
// process's lifetime peak.
func resetPeakMem() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // without it the peak covers the whole process, still a peak
}

// memSample is the allocation ledger at one instant. ReadMemStats stops the
// world and flushes every per-P cache, so deltas between two samples are
// exact counts.
type memSample struct{ bytes, objects uint64 }

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.TotalAlloc, ms.Mallocs}
}

func (a memSample) sub(b memSample) memSample {
	return memSample{a.bytes - b.bytes, a.objects - b.objects}
}

// cpuClasses samples the runtime's CPU accounting: GC time, and the time
// user goroutines ran.
type cpuClasses struct{ gc, user float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(s)
	var c cpuClasses
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.user = s[1].Value.Float64()
	}
	return c
}

// gcFrac is the share of the CPU time between two samples spent in GC.
func gcFrac(a, b cpuClasses) float64 {
	gc, user := b.gc-a.gc, b.user-a.user
	if gc+user <= 0 {
		return 0
	}
	return gc / (gc + user)
}

// median is the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

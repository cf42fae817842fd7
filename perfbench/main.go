// Command perfbench is the repository's benchmark. One run measures one
// named workload against the tree it is built from, checks every output
// against an independent oracle, and prints the workload's metrics:
//
//	perfbench -root .. --workload table1-evolve --seed 7 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it runs the workload once untraced and once with spans
// around every call into the program's layers, and prints the per-layer
// metrics. The last line of standard output is the result object; the
// lines before it stamp the host and run and list every metric by name
// and unit. Oracle failures and invalid runs exit non-zero.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	root     string
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// report is what a workload hands back for printing.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	// problems lists every oracle failure; invalid lists reasons the run
	// cannot be trusted as a measurement.
	problems []string
	invalid  []string
	// tailPct and tailSamples record the tail percentile reported as
	// cpu_ms_tail and the number of samples beyond it; tailMax is the
	// highest percentile this run's sample count would have allowed.
	tailPct, tailSamples, tailMax int
	// counts are the run's deterministic work counts, one line each;
	// their digest must repeat exactly for the same seed.
	counts []string
	// layers are the per-layer metric prefixes ("icl", "moea", ...) the
	// workload exercises; per-layer metrics of other layers read 0.
	layers []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) count(format string, args ...any) {
	r.counts = append(r.counts, fmt.Sprintf(format, args...))
}

// cpuTimes fills cpu_ms_p50 and cpu_ms_tail from per-operation CPU
// times using the workload's fixed tail percentile, and marks the run
// invalid when fewer than minBeyond samples lie beyond it.
func (r *report) cpuTimes(cpuMS []float64, tailPct int) {
	r.metrics["cpu_ms_p50"] = median(cpuMS)
	r.metrics["cpu_ms_tail"] = percentile(cpuMS, tailPct)
	r.tailPct, r.tailSamples = tailPct, beyond(len(cpuMS), tailPct)
	r.tailMax, _ = tailPercentile(len(cpuMS))
	if r.tailSamples < minBeyond {
		r.invalid = append(r.invalid, fmt.Sprintf("p%d of %d samples has only %d beyond it (need %d)", tailPct, len(cpuMS), r.tailSamples, minBeyond))
	}
}

// workload runs one named workload.
type workload func(cfg config) (*report, error)

var workloads = map[string]workload{
	"table1-evolve": runEvolve,
	"icl-analyze":   runICLAnalyze,
	"fleet-mix":     runFleetMix,
}

// endToEndMetrics are the end-to-end metrics printed in the human-readable
// table, in order. fail_frac is always 0 on a correct tree, so it is
// carried by the result's attempted/failed fields rather than listed in
// BENCHMARK.json.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"}, {"ops_per_cpu_s", "1/s"}, {"cpu_ms_p50", "ms"}, {"cpu_ms_tail", "ms"},
	{"fail_frac", "ratio"}, {"hv_ratio", "ratio"}, {"peak_rss_mb", "MB"},
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.root, "root", "..", "checkout root holding BENCHMARK.json")
	flag.StringVar(&cfg.workload, "workload", "", "workload: table1-evolve, icl-analyze or fleet-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 20, "measured seconds per phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	commit := flag.String("commit", "none", "commit of the tree under test")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1

	var bf benchmarkFile
	data, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	w, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, seconds, trace)
		return 1
	}
	rep, err := w(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return emit(cfg, *commit, bf, rep)
}

// emit prints the stamp, the metric table and the result line, and
// returns the exit code.
func emit(cfg config, commit string, bf benchmarkFile, rep *report) int {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	h := sha256.New()
	for _, c := range rep.counts {
		fmt.Fprintln(h, c)
	}
	stamp := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(), "trace": cfg.trace,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
		"tail_percentile": rep.tailPct, "tail_samples_beyond": rep.tailSamples, "tail_percentile_allowed": rep.tailMax,
		"counts_digest": hex.EncodeToString(h.Sum(nil)), "valid": len(rep.invalid) == 0,
	}
	if len(rep.invalid) > 0 {
		stamp["invalid"] = rep.invalid
	}
	sb, _ := json.Marshal(map[string]any{"stamp": stamp})
	fmt.Fprintln(out, string(sb))
	for _, p := range rep.problems {
		fmt.Fprintln(out, "oracle failure:", p)
	}
	if rep.attempted > 0 {
		rep.metrics["fail_frac"] = float64(rep.failed) / float64(rep.attempted)
	}
	for _, m := range endToEndMetrics {
		if v, ok := rep.metrics[m.name]; ok {
			fmt.Fprintf(out, "metric %-28s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	defs := bf.EndToEnd
	if cfg.trace {
		defs = bf.PerLayer
		for _, d := range defs {
			prefix, _, _ := strings.Cut(d.Name, ".")
			if _, ok := rep.metrics[d.Name]; !ok && !slices.Contains(rep.layers, prefix) {
				rep.metrics[d.Name] = 0
			}
		}
		names := make([]string, 0, len(defs))
		for _, d := range defs {
			names = append(names, d.Name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "layer  %-28s %14.6g\n", n, rep.metrics[n])
		}
	}
	metrics := map[string]any{}
	var missing []string
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", cfg.workload, strings.Join(missing, ", "))
		return 1
	}
	correct := len(rep.problems) == 0 && rep.failed == 0
	res, _ := json.Marshal(map[string]any{
		"correct": correct && len(rep.invalid) == 0, "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics,
	})
	fmt.Fprintln(out, string(res))
	switch {
	case !correct:
		return 3
	case len(rep.invalid) > 0:
		return 2
	}
	return 0
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// setupMedian runs set-up reps times and returns the last instance with
// the median set-up time in seconds. The first repetition is timed from
// process start, so runtime start-up is part of set-up. Each earlier
// instance is released before the next repetition starts.
func setupMedian[T any](reps int, setup func() (T, error), release func(T)) (T, float64, error) {
	var inst T
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := processStart
		if i > 0 {
			release(inst)
			t0 = time.Now()
		}
		v, err := setup()
		if err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		inst = v
	}
	return inst, median(times), nil
}

var processStart = time.Now()

// settle collects garbage before a timed operation, outside its timing,
// so every operation starts from the same heap and pays for the
// collections its own allocation triggers rather than for a cycle that
// an earlier operation left behind.
func settle() { runtime.GC() }

// cpuTime is the CPU time the whole process has run so far, user and
// system, on every thread. Operations are timed with it instead of the
// wall clock: on a shared host the wall clock also counts the time the
// scheduler or hypervisor ran something else, which varies by tens of
// percent from minute to minute, while the CPU time an operation needs
// does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// splitmix derives independent seeds from the workload seed.
func splitmix(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// Command perfbench is the repository's output-checked benchmark. It runs
// one workload by calling the repo's public functions, times each call
// from outside, checks every output against the committed goldens (or,
// at other seeds, against invariants that hold for any seed) and prints
// the result as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload sim-zoo --seed 2020 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// adds one traced pass (CPU profile plus an obs.Observer) and reports the
// per-layer metrics. -regen-reference rewrites the stored fast-budget
// lenet-fast reference and prints a per-row diff. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// workload is one benchmark input set.
type workload interface {
	// setup prepares the inputs and returns per-layer set-up timings. It
	// runs several times; the last run's products are used.
	setup() (map[string]float64, error)
	// pass runs the workload's op list once and checks every output; o is
	// non-nil on the traced pass.
	pass(o *obs.Observer) []opResult
	// layers reports workload-specific per-layer metrics.
	layers(untraced [][]opResult, o *obs.Observer) map[string]float64
}

// opResult is one timed call.
type opResult struct {
	name   string
	group  string // experiments.<group>_s bucket (experiment workloads)
	sim    string // accel.simulate_ms.<sim> bucket (sim-zoo)
	dur    time.Duration
	output string   // canonical output, which every pass must repeat
	bad    []string // failed checks, or the call's error
}

// metricDef is one reported metric. The lists below are the contract
// BENCHMARK.json declares (pinned by TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
}

var perLayer = func() []metricDef {
	var d []metricDef
	for _, g := range []string{"table3", "fig9", "fig10", "faults", "mixed", "overlap", "cluster", "other"} {
		d = append(d, metricDef{"experiments." + g + "_s", "s"})
	}
	for _, m := range append(slices.Clone(hostModules), "other") {
		d = append(d, metricDef{"host." + m + "_s", "s"})
	}
	d = append(d, metricDef{"models.build_s", "s"}, metricDef{"core.compress_s", "s"}, metricDef{"accel.specs_s", "s"})
	for _, zm := range zooModels {
		d = append(d, metricDef{"accel.simulate_ms." + zm.name, "ms"})
	}
	d = append(d,
		metricDef{"accel.simulate_ms.VGG-16-overlap", "ms"},
		metricDef{"accel.host_ns_per_flit", "ns"},
		metricDef{"accel.sim_cycles", "cycles"},
		metricDef{"accel.energy_uj", "uJ"},
		metricDef{"accel.memory_cycles", "cycles"},
		metricDef{"accel.comm_cycles", "cycles"},
		metricDef{"accel.compute_cycles", "cycles"},
		metricDef{"accel.decode_stall_cycles", "cycles"},
		metricDef{"accel.rounds", "count"},
		metricDef{"accel.sim_rounds", "count"},
		metricDef{"accel.extrapolated_share", "ratio"},
		metricDef{"noc.flits", "count"},
		metricDef{"noc.flit_hops", "count"},
		metricDef{"noc.dram_read_words", "words"},
		metricDef{"noc.dram_write_words", "words"},
		metricDef{"planner.evals", "count"},
		metricDef{"planner.rounds", "count"},
		metricDef{"planner.escalations", "count"},
		metricDef{"planner.dead_rungs", "count"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.allocs_m", "M"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"peak_rss_mb", "MB"},
		metricDef{"simulate_p50_ms", "ms"},
		metricDef{"simulate_tail_ms", "ms"},
		metricDef{"simulate_tail_pct", "%"},
		metricDef{"simulate_ops", "count"},
		metricDef{"trace_overhead_pct", "%"},
		metricDef{"failed_ratio", "ratio"},
	)
	return d
}()

// repoRoot is where run.sh starts perfbench: the repository root,
// holding results/ and perfbench/.
const repoRoot = "."

// workers is the experiment and simulator worker count of every workload.
const workers = 2

// setupReps is how many times each workload sets up; setup_s is the median.
var setupReps = map[string]int{"lenet-fast": 9, "sim-zoo": 3}

// nominalPass is each workload's pass length on a 2-vCPU Xeon VM. A run
// makes --seconds/nominalPass passes, and at least two so that every op
// repeats. The count follows from the arguments alone, never from the
// host's speed, so a slow host runs the same passes, only for longer.
var nominalPass = map[string]time.Duration{"lenet-fast": 10 * time.Second, "sim-zoo": 6 * time.Second}

func passCount(workload string, seconds time.Duration) int {
	return max(2, int(seconds/nominalPass[workload]))
}

func newWorkload(name string, seed int64, root string) (workload, error) {
	switch name {
	case "lenet-fast":
		return newLenetFast(seed, root), nil
	case "sim-zoo":
		return newSimZoo(seed, root), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want lenet-fast or sim-zoo)", name)
}

func main() {
	var (
		name    = flag.String("workload", "", "lenet-fast or sim-zoo")
		seed    = flag.Int64("seed", goldenSeed, "input seed; the goldens are checked only at 2020")
		seconds = flag.Int("seconds", 20, "measuring time, which sets the pass count (at least two)")
		trace   = flag.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
		regen   = flag.Bool("regen-reference", false, "rewrite the lenet-fast reference at the golden seed and print a per-row diff")
	)
	flag.Parse()
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	env, err := json.Marshal(environment())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("env %s\n", env)
	if *regen {
		if err := regenerate(); err != nil {
			fatal(err)
		}
		return
	}
	w, err := newWorkload(*name, *seed, repoRoot)
	if err != nil {
		fatal(err)
	}
	rep, err := run(w, setupReps[*name], passCount(*name, time.Duration(*seconds)*time.Second), *trace == 1)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run sets the workload up setupReps times, runs the given number of
// untraced passes and, when traced, one more pass under a CPU profile and
// an observer.
func run(w workload, setupReps, nPasses int, traced bool) (*report, error) {
	var setupTimes []float64
	setupLayers := map[string][]float64{}
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		layers, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
		for k, v := range layers {
			setupLayers[k] = append(setupLayers[k], v)
		}
	}

	rt0 := readRuntime()
	var passes [][]opResult
	var walls, cpus []float64
	for range nPasses {
		t, c := time.Now(), cpuSeconds()
		passes = append(passes, w.pass(nil))
		walls = append(walls, time.Since(t).Seconds())
		cpus = append(cpus, cpuSeconds()-c)
	}
	rt1 := readRuntime()
	peakRSS, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Printf("passes %d, wall_s %v, cpu_s %v, setup_s %v\n", len(passes), walls, cpus, setupTimes)

	var o *obs.Observer
	var prof bytes.Buffer
	all := passes
	var tracedWall float64
	if traced {
		o = obs.New()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		t := time.Now()
		ops := w.pass(o)
		tracedWall = time.Since(t).Seconds()
		pprof.StopCPUProfile()
		all = append(slices.Clone(passes), ops)
	}

	rep := &report{Metrics: map[string]metricValue{}}
	rep.Attempted, rep.Failed = countFailures(all)
	rep.Correct = rep.Failed == 0

	// wall_s sums each op's median over the passes, so with three or
	// more passes one pass slowed by the host does not move it.
	wall := 0.0
	for i := range passes[0] {
		var d []float64
		for _, p := range passes {
			d = append(d, p[i].dur.Seconds())
		}
		wall += median(d)
	}
	if !traced {
		e2e := map[string]float64{"setup_s": median(setupTimes), "wall_s": wall}
		for _, d := range endToEnd {
			rep.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
		return rep, nil
	}

	layer := opLayers(passes)
	for k, v := range setupLayers {
		layer[k] = median(v)
	}
	n := float64(len(passes))
	layer["runtime.alloc_mb"] = (rt1[0] - rt0[0]) / 1e6 / n
	layer["runtime.allocs_m"] = (rt1[1] - rt0[1]) / 1e6 / n
	layer["runtime.gc_cycles"] = (rt1[2] - rt0[2]) / n
	layer["trace_overhead_pct"] = 100 * (tracedWall - wall) / wall
	layer["failed_ratio"] = float64(rep.Failed) / float64(rep.Attempted)
	layer["peak_rss_mb"] = peakRSS
	host, err := moduleSelfTime(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for m, v := range host {
		layer["host."+m+"_s"] = v
	}
	for k, v := range w.layers(passes, o) {
		layer[k] = v
	}
	// A layer the workload does not exercise reads 0.
	for _, d := range perLayer {
		rep.Metrics[d.name] = metricValue{layer[d.name], d.unit}
	}
	return rep, nil
}

// countFailures counts the ops of every pass and those that failed a
// check, including an output that differs from the first pass's. It
// prints each failure to stderr.
func countFailures(passes [][]opResult) (attempted, failed int) {
	for pi, p := range passes {
		for i, op := range p {
			bad := op.bad
			if pi > 0 && op.output != passes[0][i].output {
				bad = append(bad, op.name+": output differs from the first pass")
			}
			attempted++
			if len(bad) > 0 {
				failed++
				for _, b := range bad {
					fmt.Fprintln(os.Stderr, "FAIL", b)
				}
			}
		}
	}
	return attempted, failed
}

// opLayers derives the per-layer timings of the untraced passes: the
// median per-pass time of each experiment group, and the sim-zoo op
// latencies per model and overall.
func opLayers(passes [][]opResult) map[string]float64 {
	layer := map[string]float64{}
	groups := map[string][]float64{}
	sims := map[string][]float64{}
	var simAll []float64
	for _, p := range passes {
		perGroup := map[string]float64{}
		for _, op := range p {
			if op.group != "" {
				perGroup[op.group] += op.dur.Seconds()
			}
			if op.sim != "" {
				ms := float64(op.dur.Nanoseconds()) / 1e6
				sims[op.sim] = append(sims[op.sim], ms)
				simAll = append(simAll, ms)
			}
		}
		for g, v := range perGroup {
			groups[g] = append(groups[g], v)
		}
	}
	for g, v := range groups {
		layer["experiments."+g+"_s"] = median(v)
	}
	for s, v := range sims {
		layer["accel.simulate_ms."+s] = median(v)
	}
	if len(simAll) > 0 {
		tail, pct := tailPercentile(simAll)
		layer["simulate_p50_ms"] = median(simAll)
		layer["simulate_tail_ms"] = tail
		layer["simulate_tail_pct"] = pct
		layer["simulate_ops"] = float64(len(simAll))
	}
	return layer
}

// runtimeSamples are the allocation and GC counters the per-layer
// runtime.* metrics difference over the untraced passes.
var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		out[i] = float64(s[i].Value.Uint64())
	}
	return out
}

// peakRSSMB is the process's maximum resident set so far.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentile returns the highest-percentile sample that still has at
// least ten samples above it, and that percentile; with fewer than 21
// samples no tail is resolvable past the median, which it returns as p50.
func tailPercentile(v []float64) (float64, float64) {
	s := slices.Clone(v)
	sort.Float64s(s)
	i := len(s) - 11
	if i < len(s)/2 {
		return median(s), 50
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// environment records what makes two runs comparable. A VECMM override
// forces a matmul kernel, so such runs do not compare with default ones.
func environment() map[string]any {
	vecmm := os.Getenv("VECMM")
	return map[string]any{
		"matmul_kernel":     tensor.MatMulKernel(),
		"available_kernels": tensor.MatMulKernels(),
		"vecmm_override":    vecmm,
		"comparable":        vecmm == "",
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"nproc":             runtime.NumCPU(),
		"workers":           workers,
		"go_version":        runtime.Version(),
		"git_rev":           gitRev(),
	}
}

// gitRev reads the checked-out commit without running git; a checkout
// without .git reports "unknown".
func gitRev() string {
	dir := filepath.Join(repoRoot, ".git")
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(dir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// regenerate reruns lenet-fast once at the golden seed, prints a per-row
// diff of every reference table against the stored one and rewrites it.
func regenerate() error {
	w := newLenetFast(goldenSeed, repoRoot)
	changed := 0
	for _, c := range w.checks {
		if c.golden {
			continue
		}
		t, err := c.spec.run(w.opts)
		if err != nil {
			return err
		}
		path := filepath.Join(repoRoot, referenceDir, c.spec.name+".csv")
		old, err := readCSV(path)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		diff := rowDiff(old, t, c.spec.keys)
		if !slices.Equal(old.header, t.header) {
			diff = append([]string{fmt.Sprintf("header %v -> %v", old.header, t.header)}, diff...)
		}
		fmt.Printf("%s: %d rows, %d differences\n", c.spec.name, len(t.rows), len(diff))
		for _, line := range diff {
			fmt.Println("  " + line)
		}
		changed += len(diff)
		if err := writeCSV(path, t); err != nil {
			return err
		}
	}
	fmt.Printf("reference: %d differences\n", changed)
	return nil
}

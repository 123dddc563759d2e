package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/tensor"
)

// The tests run from perfbench/, so the repository root is "..".
const testRoot = ".."

// perturbedRoot copies results/<name>.csv into a temporary repository
// root with one cell changed.
func perturbedRoot(t *testing.T, name, rowPrefix, column, value string) string {
	t.Helper()
	tbl, err := readCSV(filepath.Join(testRoot, "results", name+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	c := tbl.column(column)
	hit := false
	for _, r := range tbl.rows {
		if strings.HasPrefix(strings.Join(r, ","), rowPrefix) {
			r[c], hit = value, true
		}
	}
	if !hit {
		t.Fatalf("no %s row starts with %q", name, rowPrefix)
	}
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"fig10", "overlap", "table1"} {
		src, err := readCSV(filepath.Join(testRoot, "results", n+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if n == name {
			src = tbl
		}
		if err := writeCSV(filepath.Join(root, "results", n+".csv"), src); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// zooFor builds a sim-zoo with AlexNet's uncompressed and 20% points,
// checking against the goldens under root.
func zooFor(t *testing.T, root string) *simZoo {
	t.Helper()
	z := newSimZoo(goldenSeed, root)
	src, err := loadSources(root, []string{"fig10", "overlap"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	z.src = src
	opts := experiments.DefaultOptions()
	if z.serial, err = accel.NewSimulator(opts.Accel); err != nil {
		t.Fatal(err)
	}
	m, err := models.AlexNet(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	base, err := accel.SpecsFromModel(m, nil, opts.Storage)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.SelectedWeights()
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.CompressPct(w, 20)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := accel.SpecsFromModel(m, map[string]*core.Compressed{m.SelectedLayer: c}, opts.Storage)
	if err != nil {
		t.Fatal(err)
	}
	z.addOps("AlexNet", "orig", -1, 1, base, false)
	z.addOps("AlexNet", "x-20", 20, c.CompressionRatio(opts.Storage), cs, false)
	for _, op := range z.ops {
		if op.want, err = z.serial.SimulateModel(op.model, op.specs); err != nil {
			t.Fatal(err)
		}
	}
	return z
}

func TestSimZooGoldenCatchesPerturbedCell(t *testing.T) {
	z := zooFor(t, testRoot)
	for _, op := range z.ops {
		if bad := z.check(op, op.want); len(bad) > 0 {
			t.Fatalf("%s against the committed golden: %v", op.name(), bad)
		}
	}
	pz := zooFor(t, perturbedRoot(t, "fig10", "AlexNet,x-20,", "e_comm", "1.27718e+09"))
	if bad := pz.check(pz.ops[0], pz.ops[0].want); len(bad) > 0 {
		t.Fatalf("unperturbed row flagged: %v", bad)
	}
	bad := pz.check(pz.ops[1], pz.ops[1].want)
	if len(bad) != 1 || !strings.Contains(bad[0], "column e_comm") {
		t.Fatalf("perturbed e_comm cell: got %v, want one e_comm mismatch", bad)
	}
}

func TestSimZooInvariants(t *testing.T) {
	z := zooFor(t, testRoot)
	z.seed = 1 // any-seed checks only
	op := z.ops[1]
	if bad := z.check(op, op.want); len(bad) > 0 {
		t.Fatalf("clean result flagged: %v", bad)
	}
	res := *op.want
	res.Layers = append([]accel.LayerResult(nil), res.Layers...)
	res.Layers[0].Cycles++
	bad := z.check(op, &res)
	if len(bad) != 2 {
		t.Fatalf("edited layer: got %v, want a totals mismatch and a warm-up mismatch", bad)
	}
}

func TestExperimentGoldenCatchesPerturbedCell(t *testing.T) {
	c := lenetFast[0] // table1
	for _, tc := range []struct {
		root    string
		wantBad int
	}{
		{testRoot, 0},
		{perturbedRoot(t, "table1", "LeNet-5,", "fraction", "0.779828"), 1},
	} {
		w := newLenetFast(goldenSeed, tc.root)
		src, err := loadSources(tc.root, []string{"table1"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.src = src
		tbl, err := c.spec.run(w.opts)
		if err != nil {
			t.Fatal(err)
		}
		if bad := w.check(c, tbl); len(bad) != tc.wantBad {
			t.Errorf("root %s: got %v, want %d mismatches", tc.root, bad, tc.wantBad)
		}
	}
}

func TestReferenceCatchesPerturbedCell(t *testing.T) {
	ref, err := readCSV(filepath.Join(testRoot, referenceDir, "fig10.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got := table{header: ref.header}
	for _, r := range ref.rows {
		got.rows = append(got.rows, append([]string(nil), r...))
	}
	if bad := compareReference("fig10", got, ref, fig10Spec.keys); len(bad) > 0 {
		t.Fatalf("identical table flagged: %v", bad)
	}
	got.rows[2][got.column("cycles")] = "1"
	bad := compareReference("fig10", got, ref, fig10Spec.keys)
	if len(bad) != 1 || !strings.Contains(bad[0], "cycles") {
		t.Fatalf("perturbed cycles cell: got %v", bad)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(testRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		code []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		if len(c.code) != len(c.json) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", c.name, len(c.code), len(c.json))
		}
		for i, d := range c.code {
			if d.name != c.json[i].Name || d.unit != c.json[i].Unit {
				t.Errorf("%s[%d]: code %v, BENCHMARK.json %v", c.name, i, d, c.json[i])
			}
		}
	}
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name, goldenSeed, testRoot); err != nil {
			t.Error(err)
		}
		if setupReps[w.Name] < 3 {
			t.Errorf("%s: setup_s needs a median of at least 3 set-ups", w.Name)
		}
		if nominalPass[w.Name] == 0 {
			t.Errorf("%s: no nominal pass length", w.Name)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	v := make([]float64, 30)
	for i := range v {
		v[i] = float64(30 - i)
	}
	if tail, pct := tailPercentile(v); tail != 20 || pct < 66.6 || pct > 66.7 {
		t.Errorf("30 samples: tail %v at p%v, want 20 at p66.7 (ten samples above)", tail, pct)
	}
	if tail, pct := tailPercentile(v[:12]); pct != 50 || tail != median(v[:12]) {
		t.Errorf("12 samples: tail %v at p%v, want the median", tail, pct)
	}
}

func TestModuleSelfTimeChargesLeafPackage(t *testing.T) {
	a, err := tensor.New(128, 128)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := tensor.New(128, 128)
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if err := tensor.MatMulInto(dst, a, a); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	host, err := moduleSelfTime(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Runtime and unattributed time vary (the race detector adds both),
	// but no other module may outweigh the one the loop runs in.
	for _, m := range hostModules {
		if m != "tensor" && m != "runtime" && host[m] >= host["tensor"] {
			t.Fatalf("matmul loop: tensor %.3fs, %s %.3fs (%v)", host["tensor"], m, host[m], host)
		}
	}
	if host["tensor"] == 0 {
		t.Fatalf("matmul loop: no tensor samples (%v)", host)
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/tensor.(*Tensor).MatMul":                     "repro/internal/tensor",
		"repro/internal/parallel.Map[go.shape.struct { repro/x.A }]": "repro/internal/parallel",
		"runtime.mallocgc":         "runtime",
		"math.Exp":                 "math",
		"sync/atomic.(*Int64).Add": "sync/atomic",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/obs"
)

// tableCheck is one experiment call of a pass and how its table is
// verified at the golden seed.
type tableCheck struct {
	spec tableSpec
	// group is the per-layer timing bucket, experiments.<group>_s.
	group string
	// golden compares against results/<name>.csv; otherwise the table
	// must equal the stored fast-budget reference.
	golden bool
	// skip lists columns left out of the golden comparison.
	skip []string
}

// lenetFast is `benchtables -experiment all -fast` in its order. The
// committed goldens are full-budget runs: only table1, table2, fig2,
// fig3 and the overlap rows (minus the Pareto flag, which depends on
// the row set) are like-for-like; the rest compare to the reference.
var lenetFast = []tableCheck{
	{spec: table1Spec, group: "other", golden: true},
	{spec: table2Spec, group: "other", golden: true},
	{spec: fig2Spec, group: "other", golden: true},
	{spec: fig3Spec, group: "other", golden: true},
	{spec: fig9Spec, group: "fig9"},
	{spec: fig10Spec, group: "fig10"},
	{spec: table3Spec, group: "table3"},
	{spec: mixedSpec, group: "mixed"},
	{spec: overlapSpec, group: "overlap", golden: true, skip: []string{"pareto"}},
	{spec: faultsSpec, group: "faults"},
	{spec: clusterSpec, group: "cluster"},
}

// expWorkload runs a list of experiment calls per pass and checks every
// table they return.
type expWorkload struct {
	checks []tableCheck
	opts   experiments.Options
	models []string // built once per set-up
	// warmups is how many leading checks set-up calls once, untimed by
	// wall_s: cheap calls that page in the code and data every pass uses.
	warmups int
	root    string
	src     *sources
}

func newLenetFast(seed int64, root string) *expWorkload {
	o := experiments.FastOptions()
	o.Seed, o.Workers = seed, workers
	return &expWorkload{checks: lenetFast, opts: o, models: []string{"LeNet-5"}, warmups: 4, root: root}
}

// setup loads the tables the checks compare against, builds the
// workload's models once and makes the warm-up calls, which pages in
// code and heap before the timed passes rebuild them.
func (w *expWorkload) setup() (map[string]float64, error) {
	var golden, reference []string
	for _, c := range w.checks {
		if c.golden {
			golden = append(golden, c.spec.name)
		} else {
			reference = append(reference, c.spec.name)
		}
	}
	src, err := loadSources(w.root, golden, reference)
	if err != nil {
		return nil, err
	}
	w.src = src
	t := time.Now()
	for _, name := range w.models {
		b, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		if _, err := b.Build(w.opts.Seed); err != nil {
			return nil, err
		}
	}
	build := time.Since(t).Seconds()
	for _, c := range w.checks[:w.warmups] {
		if _, err := c.spec.run(w.opts); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c.spec.name, err)
		}
	}
	return map[string]float64{"models.build_s": build}, nil
}

func (w *expWorkload) pass(o *obs.Observer) []opResult {
	opts := w.opts
	opts.Obs = o
	out := make([]opResult, 0, len(w.checks))
	for _, c := range w.checks {
		t := time.Now()
		tbl, err := c.spec.run(opts)
		r := opResult{name: c.spec.name, group: c.group, dur: time.Since(t)}
		o.T().Reset() // bound trace memory; the recording cost is what the traced pass measures
		if err != nil {
			r.bad = []string{c.spec.name + ": " + err.Error()}
		} else {
			r.output = csvText(tbl)
			r.bad = w.check(c, tbl)
		}
		out = append(out, r)
	}
	return out
}

func (w *expWorkload) check(c tableCheck, t table) []string {
	bad := checkShape(c.spec.name, t, c.spec.keys)
	if w.opts.Seed != goldenSeed {
		return bad
	}
	if c.golden {
		return append(bad, compareGolden(c.spec.name, t, w.src.golden[c.spec.name], c.spec.keys, c.skip)...)
	}
	return append(bad, compareReference(c.spec.name, t, w.src.reference[c.spec.name], c.spec.keys)...)
}

// layers reports the counters the traced pass's observer saw: the
// planner's, and the simulated totals of every accelerator simulation
// the experiments ran (rounds and flit hops are not among them).
func (w *expWorkload) layers(_ [][]opResult, o *obs.Observer) map[string]float64 {
	m := map[string]float64{}
	for _, name := range []string{"evals", "rounds", "escalations", "dead_rungs"} {
		m["planner."+name] = float64(o.M().Counter("planner_" + name).Value())
	}
	for layer, counter := range map[string]string{
		"accel.sim_cycles":          "accel_cycles_total",
		"accel.memory_cycles":       "accel_cycles_memory",
		"accel.comm_cycles":         "accel_cycles_communication",
		"accel.compute_cycles":      "accel_cycles_computation",
		"accel.decode_stall_cycles": "accel_cycles_decode_stall",
		"noc.flits":                 "accel_noc_flits",
		"noc.dram_read_words":       "accel_dram_read_words",
		"noc.dram_write_words":      "accel_dram_write_words",
	} {
		m[layer] = float64(o.M().Counter(counter).Value())
	}
	m["accel.energy_uj"] = float64(o.M().Counter("accel_energy_pj").Value()) / 1e6
	return m
}

func csvText(t table) string {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	_ = cw.Write(t.header) // writes to a bytes.Buffer cannot fail
	_ = cw.WriteAll(t.rows)
	return buf.String()
}

package main

import (
	"strconv"

	"repro/internal/experiments"
)

// table is one experiment's output in the exact CSV form cmd/benchtables
// writes (same header, same cells, same 'g', 6 float formatting), so it
// compares cell by cell with the committed results/*.csv goldens.
type table struct {
	header []string
	rows   [][]string
}

// tableSpec names an experiment's CSV and the columns that identify a row.
type tableSpec struct {
	name string
	keys []string
	run  func(experiments.Options) (table, error)
}

// The formatters below mirror the CSV half of cmd/benchtables' runners;
// that package is a command and cannot be imported. A drift between the
// two shows up as a golden mismatch on the first benchmark run.
var (
	table1Spec  = tableSpec{"table1", []string{"model", "layer"}, table1}
	table2Spec  = tableSpec{"table2", []string{"model", "delta_pct"}, table2}
	table3Spec  = tableSpec{"table3", []string{"model", "delta_pct"}, table3}
	fig2Spec    = tableSpec{"fig2", []string{"layer"}, fig2}
	fig3Spec    = tableSpec{"fig3", []string{"corpus"}, fig3}
	fig9Spec    = tableSpec{"fig9", []string{"model", "layer"}, fig9}
	fig10Spec   = tableSpec{"fig10", []string{"model", "config"}, fig10}
	mixedSpec   = tableSpec{"mixed", []string{"model", "config"}, mixed}
	overlapSpec = tableSpec{"overlap", []string{"model", "delta_pct", "mode"}, overlap}
	faultsSpec  = tableSpec{"faults", []string{"model", "stream", "rate", "delta_pct"}, faults}
	clusterSpec = tableSpec{"cluster", []string{"model", "scenario", "drop_rate"}, clusterSweep}
)

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
func utoa(v uint64) string  { return strconv.FormatUint(v, 10) }
func itoa(v int) string     { return strconv.Itoa(v) }

func table1(o experiments.Options) (table, error) {
	rows, err := experiments.Table1(o)
	t := table{header: []string{"model", "params", "layer", "kind", "fraction", "paper_fraction"}}
	for _, r := range rows {
		t.rows = append(t.rows, []string{r.Model, itoa(r.Params), r.Layer, r.Kind,
			ftoa(r.Fraction), ftoa(r.PaperFraction)})
	}
	return t, err
}

// table2 leaves out benchtables' paper_cr and paper_wcr columns: they are
// constants printed beside the measurement, not program output.
func table2(o experiments.Options) (table, error) {
	rows, err := experiments.Table2(o)
	t := table{header: []string{"model", "delta_pct", "cr", "wcr", "memfp_reduction", "mse"}}
	for _, r := range rows {
		t.rows = append(t.rows, []string{r.Model, ftoa(r.DeltaPct), ftoa(r.CR),
			ftoa(r.WeightedCR), ftoa(r.MemFpReduction), ftoa(r.MSE)})
	}
	return t, err
}

func table3(o experiments.Options) (table, error) {
	rows, err := experiments.Table3(o)
	t := table{header: []string{"model", "qt_wcr", "qt_accuracy", "delta_pct", "wcr", "accuracy"}}
	for _, r := range rows {
		t.rows = append(t.rows, []string{r.Model, ftoa(r.QTCR), ftoa(r.QTAccuracy),
			ftoa(r.DeltaPct), ftoa(r.WeightedCR), ftoa(r.Accuracy)})
	}
	return t, err
}

func fig2(o experiments.Options) (table, error) {
	rows, err := experiments.Fig2(o)
	t := table{header: []string{"layer", "kind", "cycles", "lat_mem", "lat_comm", "lat_comp",
		"e_comm_dyn", "e_comm_leak", "e_comp_dyn", "e_comp_leak",
		"e_local_dyn", "e_local_leak", "e_main_dyn", "e_main_leak"}}
	for _, r := range rows {
		e := r.Energy
		t.rows = append(t.rows, []string{r.Layer, r.Kind, utoa(r.Cycles),
			utoa(r.Latency.Memory), utoa(r.Latency.Communication), utoa(r.Latency.Computation),
			ftoa(e.CommDyn), ftoa(e.CommLeak), ftoa(e.CompDyn), ftoa(e.CompLeak),
			ftoa(e.LocalDyn), ftoa(e.LocalLeak), ftoa(e.MainDyn), ftoa(e.MainLeak)})
	}
	return t, err
}

func fig3(o experiments.Options) (table, error) {
	rows, err := experiments.Fig3(o)
	t := table{header: []string{"corpus", "bytes", "entropy_bits_per_byte"}}
	for _, r := range rows {
		t.rows = append(t.rows, []string{r.Corpus, itoa(r.Bytes), ftoa(r.EntropyBits)})
	}
	return t, err
}

func fig9(o experiments.Options) (table, error) {
	rows, err := experiments.Fig9(o)
	t := table{header: []string{"model", "layer", "kind", "params", "sensitivity", "sensitivity_per_param"}}
	for _, r := range rows {
		t.rows = append(t.rows, []string{r.Model, r.Layer, r.Kind, itoa(r.Params),
			ftoa(r.Sensitivity), ftoa(r.PerParam)})
	}
	return t, err
}

var fig10Header = []string{"model", "config", "delta_pct", "accuracy", "cycles",
	"latency_norm", "energy_norm", "e_main", "e_comm", "e_comp", "e_local"}

func fig10(o experiments.Options) (table, error) {
	pts, err := experiments.Fig10(o)
	t := table{header: fig10Header}
	for _, p := range pts {
		e := p.Energy
		t.rows = append(t.rows, []string{p.Model, p.Config, ftoa(p.DeltaPct), ftoa(p.Accuracy),
			utoa(p.Cycles), ftoa(p.LatencyNorm), ftoa(p.EnergyNorm),
			ftoa(e.MainDyn + e.MainLeak), ftoa(e.CommDyn + e.CommLeak),
			ftoa(e.CompDyn + e.CompLeak), ftoa(e.LocalDyn + e.LocalLeak)})
	}
	return t, err
}

func mixed(o experiments.Options) (table, error) {
	pts, err := experiments.MixedCodec(o)
	t := table{header: []string{"model", "config", "codec", "level", "budget",
		"layers", "wcr", "accuracy", "cycles", "latency_norm", "energy_norm", "pareto"}}
	for _, p := range pts {
		t.rows = append(t.rows, []string{p.Model, p.Config, p.Codec, ftoa(p.Level), ftoa(p.Budget),
			itoa(p.Layers), ftoa(p.WeightedCR), ftoa(p.Accuracy), utoa(p.Cycles),
			ftoa(p.LatencyNorm), ftoa(p.EnergyNorm), strconv.FormatBool(p.Pareto)})
	}
	return t, err
}

var overlapHeader = []string{"model", "delta_pct", "cr", "mode", "rounds",
	"cycles", "decode_stall", "energy_uj", "speedup", "pareto"}

func overlap(o experiments.Options) (table, error) {
	pts, err := experiments.OverlapSweep(o)
	t := table{header: overlapHeader}
	for _, p := range pts {
		t.rows = append(t.rows, []string{p.Model, ftoa(p.Delta), ftoa(p.CR), p.Mode,
			itoa(p.Rounds), utoa(p.Cycles), utoa(p.DecodeStall), ftoa(p.EnergyUJ),
			ftoa(p.Speedup), strconv.FormatBool(p.Pareto)})
	}
	return t, err
}

func faults(o experiments.Options) (table, error) {
	rows, err := experiments.FaultSweep(o)
	t := table{header: []string{"model", "stream", "rate", "delta_pct",
		"words", "flips", "detected", "baseline", "accuracy"}}
	for _, r := range rows {
		t.rows = append(t.rows, []string{r.Model, r.Stream, ftoa(r.Rate), ftoa(r.DeltaPct),
			itoa(r.Words), itoa(r.Flips), itoa(r.Detected), ftoa(r.Baseline), ftoa(r.Accuracy)})
	}
	return t, err
}

func clusterSweep(o experiments.Options) (table, error) {
	rows, err := experiments.ClusterFaultSweep(o)
	t := table{header: []string{"model", "scenario", "drop_rate", "availability",
		"p50_ticks", "p99_ticks", "served", "failed", "served_stale", "reduced_replica",
		"failed_over", "mixed_version", "epoch_outcome", "leader_changes"}}
	for _, r := range rows {
		t.rows = append(t.rows, []string{r.Model, r.Scenario, ftoa(r.DropRate), ftoa(r.Availability),
			utoa(r.P50), utoa(r.P99), itoa(r.Served), itoa(r.Failed), itoa(r.ServedStale),
			itoa(r.ReducedReplica), itoa(r.FailedOver), itoa(r.MixedVersion), r.EpochOutcome,
			itoa(r.LeaderChanges)})
	}
	return t, err
}

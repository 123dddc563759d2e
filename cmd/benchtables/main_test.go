package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/experiments"
)

// TestByteIdenticalAcrossWorkers is the end-to-end determinism guarantee:
// the formatted stdout tables and the -csv files must be byte-identical
// between a serial run and a 4-worker run.
func TestByteIdenticalAcrossWorkers(t *testing.T) {
	runners := map[string]func(experiments.Options) error{
		"table1":  runTable1,
		"table2":  runTable2,
		"fig2":    runFig2,
		"fig3":    runFig3,
		"faults":  runFaults,
		"cluster": runCluster,
	}
	for name, run := range runners {
		t.Run(name, func(t *testing.T) {
			serialOpts := experiments.FastOptions()
			serialOpts.Workers = 1
			serialOut, serialCSV := captureOutput(t, run, serialOpts)

			parOpts := experiments.FastOptions()
			parOpts.Workers = 4
			parOut, parCSV := captureOutput(t, run, parOpts)

			if !bytes.Equal(serialOut, parOut) {
				t.Errorf("stdout differs between workers 1 and 4:\n--- serial ---\n%s\n--- parallel ---\n%s", serialOut, parOut)
			}
			if len(serialCSV) == 0 {
				t.Fatal("no CSV files written")
			}
			for fname, data := range serialCSV {
				if !bytes.Equal(data, parCSV[fname]) {
					t.Errorf("%s differs between workers 1 and 4", fname)
				}
			}
		})
	}
}

// captureOutput runs one runner into a fresh temp CSV dir and captured
// stdout.
func captureOutput(t *testing.T, run func(experiments.Options) error, opts experiments.Options) ([]byte, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	oldDir := csvDir
	csvDir = dir
	defer func() { csvDir = oldDir }()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStdout := os.Stdout
	os.Stdout = w
	runErr := run(opts)
	w.Close()
	os.Stdout = oldStdout
	out, readErr := io.ReadAll(r)
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}

	files := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return out, files
}

// TestCheckpointRoundTrip: marked experiments persist and reload; a
// missing file is an empty set; a corrupt file is ignored (fresh start),
// never half-loaded.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	cp, err := loadCheckpoint(path, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.done) != 0 {
		t.Fatalf("fresh checkpoint not empty: %v", cp.done)
	}
	for _, name := range []string{"table1", "fig2"} {
		if err := cp.mark(name); err != nil {
			t.Fatal(err)
		}
	}
	re, err := loadCheckpoint(path, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if !re.done["table1"] || !re.done["fig2"] || len(re.done) != 2 {
		t.Fatalf("reloaded set %v, want {table1, fig2}", re.done)
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := loadCheckpoint(path, testConfig)
	if err != nil {
		t.Fatalf("corrupt checkpoint treated as fatal: %v", err)
	}
	if len(fresh.done) != 0 || len(fresh.models) != 0 {
		t.Fatalf("corrupt checkpoint half-loaded: %v / %v", fresh.done, fresh.models)
	}

	// The empty path disables persistence but still tracks in memory.
	mem, err := loadCheckpoint("", testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.mark("fig3"); err != nil {
		t.Fatal(err)
	}
	if !mem.done["fig3"] {
		t.Fatal("in-memory mark lost")
	}
}

// TestParseFlagsFastKeepsExplicitBudget: -fast selects FastOptions, and
// -probes, -epochs, -samples and -seed override it only when given.
func TestParseFlagsFastKeepsExplicitBudget(t *testing.T) {
	withWorkers := func(o experiments.Options, w int) experiments.Options {
		o.Workers = w
		return o
	}
	fastSet := experiments.FastOptions()
	fastSet.Seed, fastSet.Probes, fastSet.TrainEpochs, fastSet.TrainSamples = 9, 6, 2, 300
	full := experiments.DefaultOptions()
	full.TrainEpochs = 4
	for _, tc := range []struct {
		args []string
		want experiments.Options
	}{
		{[]string{"-fast", "-workers", "2"}, withWorkers(experiments.FastOptions(), 2)},
		{[]string{"-fast", "-probes", "6", "-epochs", "2", "-samples", "300", "-seed", "9", "-workers", "1"}, withWorkers(fastSet, 1)},
		{[]string{"-workers", "3"}, withWorkers(experiments.DefaultOptions(), 3)},
		{[]string{"-epochs", "4", "-workers", "3"}, withWorkers(full, 3)},
	} {
		if got := parseFlags(tc.args).opts; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseFlags(%q):\n got %+v\nwant %+v", tc.args, got, tc.want)
		}
	}
}

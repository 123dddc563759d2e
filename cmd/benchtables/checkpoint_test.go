package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func TestCheckpointModelResultsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	cp, err := loadCheckpoint(path, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.mark("table2"); err != nil {
		t.Fatal(err)
	}
	if err := cp.Store("fig10/LeNet-5", map[string]int{"points": 3}); err != nil {
		t.Fatal(err)
	}

	re, err := loadCheckpoint(path, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if !re.done["table2"] {
		t.Fatal("completed experiment lost on reload")
	}
	var got map[string]int
	ok, err := re.Load("fig10/LeNet-5", &got)
	if err != nil || !ok || got["points"] != 3 {
		t.Fatalf("model result lost on reload: ok=%v err=%v got=%v", ok, err, got)
	}
}

// TestCheckpointTruncatedIsIgnored pins the crash-safety contract: a
// checkpoint cut off mid-write is detected and ignored — the run starts
// fresh — rather than half-loaded or treated as fatal.
func TestCheckpointTruncatedIsIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	cp, err := loadCheckpoint(path, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1", "table2", "fig2"} {
		if err := cp.mark(name); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(whole) {
		t.Fatalf("saved checkpoint is not valid JSON: %q", whole)
	}

	// Simulate a torn write at every prefix length that breaks the JSON.
	for cut := 1; cut < len(whole); cut++ {
		prefix := whole[:cut]
		if json.Valid(prefix) {
			continue // a valid prefix parses as a complete (older) doc
		}
		if err := os.WriteFile(path, prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := loadCheckpoint(path, testConfig)
		if err != nil {
			t.Fatalf("cut at %d: truncated checkpoint treated as fatal: %v", cut, err)
		}
		if len(re.done) != 0 || len(re.models) != 0 {
			t.Fatalf("cut at %d: truncated checkpoint half-loaded: done=%v models=%v",
				cut, re.done, re.models)
		}
	}
}

// testConfig stands in for an options fingerprint.
const testConfig = "config-a"

// writeResumable saves a checkpoint with one finished experiment and one
// per-model result under the given fingerprint.
func writeResumable(t *testing.T, path, config string) {
	t.Helper()
	cp, err := loadCheckpoint(path, config)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.mark("fig10"); err != nil {
		t.Fatal(err)
	}
	if err := cp.Store("fig10/LeNet-5", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
}

// assertFresh requires a loaded checkpoint to hold nothing.
func assertFresh(t *testing.T, cp *checkpointFile, label string) {
	t.Helper()
	if len(cp.done) != 0 || len(cp.models) != 0 {
		t.Fatalf("%s: resumed stale results: done=%v models=%v", label, cp.done, cp.models)
	}
}

// TestCheckpointConfigMismatchStartsFresh: a checkpoint written under
// other options is ignored, so no "done" experiment is skipped and no
// per-model result is reloaded; the same options still resume.
func TestCheckpointConfigMismatchStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	writeResumable(t, path, testConfig)
	other, err := loadCheckpoint(path, "config-b")
	if err != nil {
		t.Fatal(err)
	}
	assertFresh(t, other, "different options")
	same, err := loadCheckpoint(path, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if !same.done["fig10"] || len(same.models) != 1 {
		t.Fatalf("same options did not resume: done=%v models=%v", same.done, same.models)
	}
}

// TestCheckpointWithoutFingerprintStartsFresh: a checkpoint that names no
// options, in the object form or the old plain name-array form, cannot
// be matched to this run and is ignored.
func TestCheckpointWithoutFingerprintStartsFresh(t *testing.T) {
	for name, doc := range map[string]string{
		"object":     `{"done": ["fig10"], "models": {"fig10/LeNet-5": [1, 2]}}`,
		"name-array": `["fig3","table1"]`,
	} {
		path := filepath.Join(t.TempDir(), "run.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := loadCheckpoint(path, testConfig)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertFresh(t, cp, name)
	}
}

// TestCheckpointResumeAcrossFlags drives the reported bug through the
// command line: a checkpoint written by `-fast -seed 1` must not be
// resumed by `-seed 2020` or by a run without -fast, but is resumed by
// the same flags with a different worker count.
func TestCheckpointResumeAcrossFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	fingerprint := func(args ...string) string {
		t.Helper()
		fp, err := optionsFingerprint(parseFlags(args).opts)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	writeResumable(t, path, fingerprint("-fast", "-seed", "1"))
	for _, args := range [][]string{{"-fast", "-seed", "2020"}, {"-fast"}, {"-seed", "1"}} {
		cp, err := loadCheckpoint(path, fingerprint(args...))
		if err != nil {
			t.Fatal(err)
		}
		assertFresh(t, cp, strings.Join(args, " "))
	}
	cp, err := loadCheckpoint(path, fingerprint("-fast", "-seed", "1", "-workers", "3"))
	if err != nil {
		t.Fatal(err)
	}
	if !cp.done["fig10"] {
		t.Fatal("a different -workers value refused to resume")
	}
}

// TestOptionsFingerprint: every result-shaping option changes the
// fingerprint; workers, deadline, checkpoint and observability do not.
func TestOptionsFingerprint(t *testing.T) {
	base := experiments.FastOptions()
	fp := func(o experiments.Options) string {
		t.Helper()
		s, err := optionsFingerprint(o)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := fp(base)
	for name, mutate := range map[string]func(*experiments.Options){
		"seed":    func(o *experiments.Options) { o.Seed++ },
		"fast":    func(o *experiments.Options) { o.Fast = false },
		"samples": func(o *experiments.Options) { o.TrainSamples++ },
		"epochs":  func(o *experiments.Options) { o.TrainEpochs++ },
		"probes":  func(o *experiments.Options) { o.Probes++ },
		"models":  func(o *experiments.Options) { o.Models = []string{"AlexNet"} },
		"faults":  func(o *experiments.Options) { o.FaultRates = []float64{0.5} },
		"storage": func(o *experiments.Options) { o.Storage.LenBits = 16 },
		"accel":   func(o *experiments.Options) { o.Accel.Overlap = true },
		"energy":  func(o *experiments.Options) { o.Accel.Energy.MACPJ *= 2 },
		"mesh":    func(o *experiments.Options) { o.Accel.Mesh.Width = 8 },
	} {
		o := base
		o.Models = append([]string(nil), base.Models...)
		mutate(&o)
		if fp(o) == want {
			t.Errorf("changing %s leaves the fingerprint unchanged", name)
		}
	}
	same := base
	same.Workers = 7
	same.Context = context.Background()
	same.Obs = obs.New()
	same.Checkpoint = &checkpointFile{}
	if fp(same) != want {
		t.Error("workers, context, observer or checkpoint changed the fingerprint")
	}
}

func TestCheckpointSaveLeavesNoDebris(t *testing.T) {
	dir := t.TempDir()
	cp, err := loadCheckpoint(filepath.Join(dir, "run.json"), testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.mark("fig9"); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left after save", e.Name())
		}
	}
}

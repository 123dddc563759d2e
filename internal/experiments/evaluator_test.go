package experiments

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

// fixtureOpts returns a small training budget: above Options.validate's
// floor, but trained in well under a second.
func fixtureOpts() Options {
	o := FastOptions()
	o.Seed = 91
	o.TrainSamples = 60
	o.TrainEpochs = 1
	return o
}

// countTrainings empties the memo and wraps fitLeNet5 for the test's
// duration. It returns the number of trainings started; the first
// failFirst of them fail.
func countTrainings(t *testing.T, failFirst int32) *atomic.Int32 {
	t.Helper()
	trainedLeNets.Range(func(k, _ any) bool {
		trainedLeNets.Delete(k)
		return true
	})
	var n atomic.Int32
	fit := fitLeNet5
	fitLeNet5 = func(g *nn.Graph, trainSet []dataset.Sample, epochs int) error {
		if n.Add(1) <= failFirst {
			return errors.New("injected training failure")
		}
		return fit(g, trainSet, epochs)
	}
	t.Cleanup(func() { fitLeNet5 = fit })
	return &n
}

// buildLeNet returns a freshly built, untrained LeNet-5.
func buildLeNet(t *testing.T, seed int64) *models.Model {
	t.Helper()
	m, err := models.LeNet5(seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fixtureLeNet returns a fresh LeNet-5 built at opts.Seed with the
// fixture's trained weights, and the test split.
func fixtureLeNet(t *testing.T, opts Options) (*models.Model, []dataset.Sample) {
	t.Helper()
	m := buildLeNet(t, opts.Seed)
	testSet, err := trainedLeNet5(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, testSet
}

// freshFit trains a fresh LeNet-5 the way the experiments did before the
// fixture existed, spelling the optimiser out rather than reusing the
// fixture's constants.
func freshFit(t *testing.T, opts Options) (*models.Model, []dataset.Sample) {
	t.Helper()
	m := buildLeNet(t, opts.Seed)
	samples, err := dataset.Digits(opts.TrainSamples, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	trainSet, testSet, err := dataset.Split(samples, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := train.NewSGD(0.05, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := train.NewTrainer(m.Graph, opt, 16)
	if err != nil {
		t.Fatal(err)
	}
	tr.LRDecay = 0.85
	if _, err := tr.Fit(trainSet, opts.TrainEpochs); err != nil {
		t.Fatal(err)
	}
	return m, testSet
}

// paramBits flattens every parameter of m to its Float32bits.
func paramBits(m *models.Model) []uint32 {
	var out []uint32
	for _, p := range paramTensors(m.Graph) {
		for _, v := range p.Data {
			out = append(out, math.Float32bits(v))
		}
	}
	return out
}

func assertSameParams(t *testing.T, got, want *models.Model, label string) {
	t.Helper()
	g, w := paramBits(got), paramBits(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d parameters, want %d", label, len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: parameter %d = %08x, want %08x", label, i, g[i], w[i])
		}
	}
}

// TestTrainedLeNetMatchesFreshFit: the memoised weights, both from the
// training call and from a later cache hit, are Float32bits-identical to
// a fresh Trainer.Fit with the same key, and so is the test split.
func TestTrainedLeNetMatchesFreshFit(t *testing.T) {
	opts := fixtureOpts()
	opts.TrainEpochs = 2 // the second epoch runs at the decayed rate
	trainings := countTrainings(t, 0)
	want, wantTest := freshFit(t, opts)
	for call := 1; call <= 2; call++ {
		got, testSet := fixtureLeNet(t, opts)
		assertSameParams(t, got, want, "fixture vs fresh Fit")
		if !reflect.DeepEqual(testSet, wantTest) {
			t.Fatalf("call %d: test split differs from a fresh split", call)
		}
	}
	if n := trainings.Load(); n != 1 {
		t.Fatalf("two calls with one key trained %d times, want 1", n)
	}
}

// TestTrainedLeNetCopiesAreIndependent: a consumer that mutates its
// weights in place, as the sweeps do, leaves the next consumer's copy
// clean.
func TestTrainedLeNetCopiesAreIndependent(t *testing.T) {
	opts := fixtureOpts()
	first, _ := fixtureLeNet(t, opts)
	clean := buildLeNet(t, opts.Seed)
	for i, p := range paramTensors(first.Graph) {
		copy(paramTensors(clean.Graph)[i].Data, p.Data)
	}
	for _, p := range paramTensors(first.Graph) {
		for i := range p.Data {
			p.Data[i] = 42
		}
	}
	second, _ := fixtureLeNet(t, opts)
	assertSameParams(t, second, clean, "copy after another consumer's mutation")
}

// TestTrainedLeNetKeysDoNotCollide: options that differ from one key in
// only the seed, the sample count or the epoch count each train afresh
// and get their own weights. The model is always built at the base seed,
// so only the named option differs.
func TestTrainedLeNetKeysDoNotCollide(t *testing.T) {
	base := fixtureOpts()
	trainings := countTrainings(t, 0)
	seed, samples, epochs := base, base, base
	seed.Seed++
	samples.TrainSamples += 4
	epochs.TrainEpochs++
	variants := []struct {
		name string
		opts Options
	}{{"base", base}, {"seed", seed}, {"samples", samples}, {"epochs", epochs}}
	got := make([][]uint32, len(variants))
	for i, v := range variants {
		m := buildLeNet(t, base.Seed)
		if _, err := trainedLeNet5(m, v.opts); err != nil {
			t.Fatal(err)
		}
		got[i] = paramBits(m)
		if n := trainings.Load(); n != int32(i+1) {
			t.Fatalf("%s: %d trainings after %d distinct keys", v.name, n, i+1)
		}
	}
	for i := 1; i < len(variants); i++ {
		if reflect.DeepEqual(got[i], got[0]) {
			t.Errorf("%s variant got the base key's weights", variants[i].name)
		}
	}
}

// TestTrainedLeNetConcurrentTrainsOnce: parallel callers with one key
// train exactly once and all get the same weights (run under -race by
// verify.sh).
func TestTrainedLeNetConcurrentTrainsOnce(t *testing.T) {
	opts := fixtureOpts()
	trainings := countTrainings(t, 0)
	const callers = 6
	ms := make([]*models.Model, callers)
	errs := make([]error, callers)
	for i := range ms {
		ms[i] = buildLeNet(t, opts.Seed)
	}
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = trainedLeNet5(ms[i], opts)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if n := trainings.Load(); n != 1 {
		t.Fatalf("%d concurrent callers trained %d times, want 1", callers, n)
	}
	for i := 1; i < callers; i++ {
		assertSameParams(t, ms[i], ms[0], "concurrent caller")
	}
}

// TestTrainedLeNetFailureIsRetried: a failed training is reported and not
// memoised; the next caller trains again and its success is memoised.
func TestTrainedLeNetFailureIsRetried(t *testing.T) {
	opts := fixtureOpts()
	trainings := countTrainings(t, 1)
	if _, err := trainedLeNet5(buildLeNet(t, opts.Seed), opts); err == nil {
		t.Fatal("injected training failure not reported")
	}
	got, _ := fixtureLeNet(t, opts)
	if n := trainings.Load(); n != 2 {
		t.Fatalf("call after a failure: %d trainings, want 2", n)
	}
	want, _ := freshFit(t, opts)
	assertSameParams(t, got, want, "retried training")
	fixtureLeNet(t, opts)
	if n := trainings.Load(); n != 2 {
		t.Fatalf("retried success not memoised: %d trainings, want 2", n)
	}
}

package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/train"
)

// evaluator measures the accuracy of a model configuration. LeNet-5 is
// trained for real on the synthetic digit set and measured with genuine
// top-1 accuracy (the paper also uses top-1 for LeNet); the large models,
// which cannot be trained offline, are measured with top-5 fidelity
// against the original network over a fixed probe set (see DESIGN.md).
// For delta sweeps that only modify the selected layer, the prefix
// activations are cached so only the network suffix re-runs.
type evaluator struct {
	m       *models.Model
	isTop1  bool
	workers int             // sample-level sharding bound for batch evaluation
	ctx     context.Context // bounds the recache fan-out

	// top-1 path (LeNet).
	testSet []dataset.Sample

	// fidelity path (large models).
	fid    *train.Fidelity
	probes []*tensor.Tensor
	acts   []map[string]*tensor.Tensor
}

// newEvaluator prepares the accuracy measurement for a model. For LeNet-5
// this gives the network its genuinely trained weights (mutating m; see
// trainedLeNet5); for other models it records the fidelity reference and
// caches prefix activations.
func newEvaluator(m *models.Model, opts Options) (*evaluator, error) {
	ev := &evaluator{m: m, isTop1: m.Name == "LeNet-5", workers: opts.workers(), ctx: opts.ctx()}
	if ev.isTop1 {
		testSet, err := trainedLeNet5(m, opts)
		if err != nil {
			return nil, err
		}
		ev.testSet = testSet
		return ev, nil
	}
	shape := m.InputShape
	probes, err := dataset.SyntheticImages(opts.Probes, shape[0], shape[1], shape[2], opts.Seed^0x9e3779b9)
	if err != nil {
		return nil, err
	}
	ev.probes = probes
	ev.fid, err = train.NewFidelity(m.Graph, probes, 5)
	if err != nil {
		return nil, err
	}
	if err := ev.recache(); err != nil {
		return nil, err
	}
	return ev, nil
}

// recache recomputes and prunes the cached prefix activations, sharding
// the probes over the worker pool with one scratch Runner per chunk. The
// kept activations are cloned out of the Runner-owned buffers (the prune
// set is kilobytes, so the copies are cheap) and are therefore stable
// across later forwards.
func (ev *evaluator) recache() error {
	if ev.isTop1 {
		return nil
	}
	needed := ev.neededActivations()
	ev.acts = make([]map[string]*tensor.Tensor, len(ev.probes))
	workers := ev.workers
	if workers > len(ev.probes) {
		workers = len(ev.probes)
	}
	return parallel.ForEach(ev.ctx, workers, workers, func(_ context.Context, w int) error {
		lo, hi := chunkRange(len(ev.probes), workers, w)
		r := ev.m.Graph.WithScratch()
		for i := lo; i < hi; i++ {
			all, err := r.ForwardAll(ev.probes[i])
			if err != nil {
				return err
			}
			pruned := make(map[string]*tensor.Tensor, len(needed))
			for name := range needed {
				a, ok := all[name]
				if !ok {
					return fmt.Errorf("experiments: missing activation %q", name)
				}
				pruned[name] = a.Clone()
			}
			ev.acts[i] = pruned
		}
		return nil
	})
}

// chunkRange returns the half-open range [lo, hi) of chunk w out of
// `chunks` over n items.
func chunkRange(n, chunks, w int) (lo, hi int) {
	size := (n + chunks - 1) / chunks
	lo = w * size
	hi = min(lo+size, n)
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// neededActivations returns the node names whose activations the suffix
// (selected layer onward) reads from the prefix — keeping only these
// bounds the cache to kilobytes even for VGG-16.
func (ev *evaluator) neededActivations() map[string]bool {
	g := ev.m.Graph
	names := g.LayerNames()
	start := 0
	for i, n := range names {
		if n == ev.m.SelectedLayer {
			start = i
			break
		}
	}
	inSuffix := make(map[string]bool)
	for _, n := range names[start:] {
		inSuffix[n] = true
	}
	needed := make(map[string]bool)
	for _, n := range names[start:] {
		for _, in := range g.Inputs(n) {
			if !inSuffix[in] {
				needed[in] = true
			}
		}
	}
	return needed
}

// accuracy measures the current model configuration. Only the selected
// layer may differ from the last recache (or training) state; fidelity
// evaluation re-runs just the suffix. The fidelity measure is the
// continuous top-5 overlap: the untrained large models have tiny logit
// gaps, so the binary top-1-in-top-5 score collapses to 0/1 under small
// perturbations where real trained networks degrade smoothly (see
// DESIGN.md's accuracy-metric substitution).
func (ev *evaluator) accuracy(m *models.Model) (float64, error) {
	if ev.isTop1 {
		return train.AccuracyWorkers(m.Graph, ev.testSet, ev.workers)
	}
	return ev.fid.OverlapFromWorkers(m.Graph, ev.acts, m.SelectedLayer, ev.workers)
}

// fullAccuracy measures accuracy with complete forward passes — needed
// when layers other than the selected one changed and a recache is not
// wanted.
func (ev *evaluator) fullAccuracy(m *models.Model) (float64, error) {
	if ev.isTop1 {
		return train.AccuracyWorkers(m.Graph, ev.testSet, ev.workers)
	}
	return ev.fid.ScoreWorkers(m.Graph, ev.probes, ev.workers)
}

// fineAccuracy is fullAccuracy with the finer top-5 overlap metric for
// fidelity models — the sensitivity analysis needs sub-top-1 resolution.
func (ev *evaluator) fineAccuracy(m *models.Model) (float64, error) {
	if ev.isTop1 {
		return train.AccuracyWorkers(m.Graph, ev.testSet, ev.workers)
	}
	return ev.fid.OverlapWorkers(m.Graph, ev.probes, ev.workers)
}

// baseline returns the unmodified network's score: measured top-1 for
// LeNet, 1.0 by construction for fidelity.
func (ev *evaluator) baseline(m *models.Model) (float64, error) {
	if ev.isTop1 {
		return train.AccuracyWorkers(m.Graph, ev.testSet, ev.workers)
	}
	return 1.0, nil
}

// snapshotSelected copies the selected layer's current weight stream so a
// sweep can restore it.
func snapshotSelected(m *models.Model) ([]float64, error) {
	return m.SelectedWeights()
}

// layerParamTensors lists the perturbable layers of a graph (those with a
// weight tensor), for the sensitivity experiment.
func layerParamTensors(g *nn.Graph) []nn.Layer {
	var out []nn.Layer
	for _, l := range g.Layers() {
		switch l.Kind() {
		case "CONV", "DWCONV", "FC":
			if len(l.Params()) > 0 {
				out = append(out, l)
			}
		}
	}
	return out
}

// The optimiser configuration of every LeNet-5 accuracy experiment.
const (
	lenetLR       = 0.05
	lenetMomentum = 0.9
	lenetBatch    = 16
	lenetLRDecay  = 0.85
)

// trainKey content-addresses one LeNet-5 training: the untrained
// parameters plus everything Trainer.Fit's result depends on. Two
// trainings with equal keys produce Float32bits-identical weights.
type trainKey struct {
	init                  [sha256.Size]byte // parameter names, shapes and Float32bits
	seed                  int64
	samples, epochs       int
	lr, momentum, lrDecay float64
	batch                 int
}

// trainedWeights is one memoised training: the trained parameter values
// in paramTensors order, and the held-out split the accuracy runs on.
type trainedWeights struct {
	once    sync.Once
	params  [][]float32
	testSet []dataset.Sample
	err     error
}

// trainedLeNets memoises trainings per key for the life of the process.
// Table III, Fig. 9, Fig. 10, the fault sweep and the mixed-codec sweep
// all measure the same trained network, so it is trained once.
var trainedLeNets sync.Map // trainKey -> *trainedWeights

// fitLeNet5 trains g in place with the experiments' fixed optimiser. It is
// a variable so tests can count and fail trainings.
var fitLeNet5 = func(g *nn.Graph, trainSet []dataset.Sample, epochs int) error {
	opt, err := train.NewSGD(lenetLR, lenetMomentum)
	if err != nil {
		return err
	}
	tr, err := train.NewTrainer(g, opt, lenetBatch)
	if err != nil {
		return err
	}
	tr.LRDecay = lenetLRDecay
	_, err = tr.Fit(trainSet, epochs)
	return err
}

// trainedLeNet5 overwrites the freshly built m's parameters with their
// trained values and returns the test split. The first caller with a key
// trains (concurrent callers with that key wait for it); later callers
// get a copy of the memoised weights, never a shared tensor, because the
// sweeps mutate weights in place. A failed training is not memoised: the
// next caller trains again.
func trainedLeNet5(m *models.Model, opts Options) ([]dataset.Sample, error) {
	params := paramTensors(m.Graph)
	key := trainKey{
		init: hashParams(m.Graph), seed: opts.Seed,
		samples: opts.TrainSamples, epochs: opts.TrainEpochs,
		lr: lenetLR, momentum: lenetMomentum, lrDecay: lenetLRDecay, batch: lenetBatch,
	}
	v, _ := trainedLeNets.LoadOrStore(key, new(trainedWeights))
	tw := v.(*trainedWeights)
	tw.once.Do(func() {
		tw.testSet, tw.params, tw.err = trainLeNet5(m, params, opts)
	})
	if tw.err != nil {
		trainedLeNets.CompareAndDelete(key, tw)
		return nil, tw.err
	}
	for i, p := range params {
		copy(p.Data, tw.params[i])
	}
	return tw.testSet, nil
}

// trainLeNet5 trains m on the digit set the options name and returns the
// test split and a snapshot of the trained parameters.
func trainLeNet5(m *models.Model, params []*tensor.Tensor, opts Options) ([]dataset.Sample, [][]float32, error) {
	samples, err := dataset.Digits(opts.TrainSamples, opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	trainSet, testSet, err := dataset.Split(samples, 0.25)
	if err != nil {
		return nil, nil, err
	}
	if err := fitLeNet5(m.Graph, trainSet, opts.TrainEpochs); err != nil {
		return nil, nil, err
	}
	snap := make([][]float32, len(params))
	for i, p := range params {
		snap[i] = append([]float32(nil), p.Data...)
	}
	return testSet, snap, nil
}

// paramTensors lists every parameter tensor of g in layer order.
func paramTensors(g *nn.Graph) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range g.Layers() {
		for _, p := range l.Params() {
			out = append(out, p.T)
		}
	}
	return out
}

// hashParams digests the layer and parameter names, shapes and
// Float32bits of every parameter of g.
func hashParams(g *nn.Graph) [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	for _, l := range g.Layers() {
		for _, p := range l.Params() {
			buf = append(buf[:0], l.Name()...)
			buf = append(buf, 0)
			buf = append(buf, p.Name...)
			buf = append(buf, 0)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p.T.Rank()))
			for _, d := range p.T.Shape() {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
			}
			for _, v := range p.T.Data {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
			h.Write(buf)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

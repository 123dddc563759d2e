package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/obs"
)

// zooModels is the sim-zoo op list: the serial (Fig. 10) points of each
// large model plus VGG-16's streaming-overlap point, all of which have a
// golden row in results/fig10.csv or results/overlap.csv. The delta
// subsets keep one sweep near 7 s on two cores: per op AlexNet costs about
// 0.1 s, VGG-16 0.2 s, MobileNet 0.5 s, ResNet50 1 s and Inception-v3
// 1.6 s. VGG-16 runs uncompressed only: compressing its 102M-weight layer
// takes over a second and 1.5 GB per delta, on every set-up repetition.
var zooModels = []struct {
	name    string
	deltas  []float64
	overlap bool
}{
	{"AlexNet", []float64{0, 5, 10, 15, 20}, false},
	{"VGG-16", nil, true},
	{"MobileNet", []float64{8}, false},
	{"ResNet50", []float64{8}, false},
	{"Inception-v3", []float64{20}, false},
}

// zooOp is one SimulateModel call of the sweep.
type zooOp struct {
	model   string
	config  string  // fig10 config: "orig" or "x-<delta>"
	delta   float64 // overlap.csv delta: -1 for the uncompressed model
	overlap bool
	cr      float64
	specs   []accel.LayerSpec
	want    *accel.Result // the first result, which every repeat must equal
}

// bucket is the accel.simulate_ms.<bucket> timing group.
func (op *zooOp) bucket() string {
	if op.overlap {
		return op.model + "-overlap"
	}
	return op.model
}

func (op *zooOp) name() string {
	mode := "serial"
	if op.overlap {
		mode = "overlap"
	}
	return fmt.Sprintf("%s/%s/%s", op.model, op.config, mode)
}

// simZoo times accel.Simulator.SimulateModel on the large models, whose
// host time is almost all in accel and noc on the extrapolated path.
type simZoo struct {
	seed    int64
	root    string
	src     *sources
	serial  *accel.Simulator
	overlap *accel.Simulator
	ops     []*zooOp
}

func newSimZoo(seed int64, root string) *simZoo {
	return &simZoo{seed: seed, root: root}
}

func (z *simZoo) setup() (map[string]float64, error) {
	z.ops = nil
	runtime.GC() // drop the previous repetition's inputs before building new ones
	src, err := loadSources(z.root, []string{"fig10", "overlap"}, nil)
	if err != nil {
		return nil, err
	}
	z.src = src
	opts := experiments.DefaultOptions()
	overlapCfg := opts.Accel
	overlapCfg.Overlap = true
	if z.serial, err = accel.NewSimulator(opts.Accel); err != nil {
		return nil, err
	}
	if z.overlap, err = accel.NewSimulator(overlapCfg); err != nil {
		return nil, err
	}
	z.serial.SetWorkers(workers)
	z.overlap.SetWorkers(workers)

	var build, compress, specs time.Duration
	for _, zm := range zooModels {
		t := time.Now()
		b, err := models.ByName(zm.name)
		if err != nil {
			return nil, err
		}
		m, err := b.Build(z.seed)
		if err != nil {
			return nil, err
		}
		var w []float64
		if len(zm.deltas) > 0 {
			if w, err = m.SelectedWeights(); err != nil {
				return nil, err
			}
		}
		build += time.Since(t)

		t = time.Now()
		base, err := accel.SpecsFromModel(m, nil, opts.Storage)
		if err != nil {
			return nil, err
		}
		specs += time.Since(t)
		z.addOps(zm.name, "orig", -1, 1, base, zm.overlap)

		for _, d := range zm.deltas {
			t = time.Now()
			c, err := core.CompressPct(w, d)
			if err != nil {
				return nil, fmt.Errorf("%s delta %g: %w", zm.name, d, err)
			}
			compress += time.Since(t)
			t = time.Now()
			cs, err := accel.SpecsFromModel(m, map[string]*core.Compressed{m.SelectedLayer: c}, opts.Storage)
			if err != nil {
				return nil, err
			}
			specs += time.Since(t)
			z.addOps(zm.name, fmt.Sprintf("x-%g", d), d, c.CompressionRatio(opts.Storage), cs, zm.overlap)
		}
		m, w = nil, nil
		runtime.GC() // keep peak memory at one model's weights
	}
	// One warm-up op per (model, mode) fills the simulator's scratch pools
	// and records the baseline the golden norms divide by.
	for _, op := range z.ops {
		if op.config != "orig" {
			continue
		}
		res, err := z.sim(op).SimulateModel(op.model, op.specs)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", op.name(), err)
		}
		op.want = res
	}
	return map[string]float64{
		"models.build_s":  build.Seconds(),
		"core.compress_s": compress.Seconds(),
		"accel.specs_s":   specs.Seconds(),
	}, nil
}

// addOps appends the serial op of one point and, for overlap models, its
// overlap op after it: the overlap check divides by the serial result.
func (z *simZoo) addOps(model, config string, delta, cr float64, specs []accel.LayerSpec, overlap bool) {
	z.ops = append(z.ops, &zooOp{model: model, config: config, delta: delta, cr: cr, specs: specs})
	if overlap {
		z.ops = append(z.ops, &zooOp{model: model, config: config, delta: delta, cr: cr, specs: specs, overlap: true})
	}
}

func (z *simZoo) sim(op *zooOp) *accel.Simulator {
	if op.overlap {
		return z.overlap
	}
	return z.serial
}

func (z *simZoo) pass(o *obs.Observer) []opResult {
	z.serial.SetObserver(o)
	z.overlap.SetObserver(o)
	defer z.serial.SetObserver(nil)
	defer z.overlap.SetObserver(nil)
	out := make([]opResult, 0, len(z.ops))
	for _, op := range z.ops {
		t := time.Now()
		res, err := z.sim(op).SimulateModel(op.model, op.specs)
		r := opResult{name: op.name(), sim: op.bucket(), dur: time.Since(t)}
		o.T().Reset() // bound trace memory; the recording cost is what the traced pass measures
		if err != nil {
			r.bad = []string{err.Error()}
		} else {
			r.bad = z.check(op, res)
		}
		out = append(out, r)
	}
	return out
}

// check verifies one op's result: the any-seed invariants always, and at
// the golden seed the committed row for the op.
func (z *simZoo) check(op *zooOp, res *accel.Result) []string {
	bad := resultInvariants(op.name(), res)
	if op.want == nil {
		op.want = res
	} else if !reflect.DeepEqual(res, op.want) {
		bad = append(bad, op.name()+": result differs from the first run of the same op")
	}
	if z.seed != goldenSeed {
		return bad
	}
	if op.overlap {
		serial := z.find(op.model, op.config, false).want
		rounds := 0
		for _, l := range res.Layers {
			rounds += l.Rounds
		}
		row := []string{op.model, ftoa(op.delta), ftoa(op.cr), "overlap", itoa(rounds),
			utoa(res.Cycles), utoa(res.Latency.DecodeStall), ftoa(res.Energy.Total() / 1e6),
			ftoa(float64(serial.Cycles) / float64(res.Cycles)), ""}
		got := table{header: overlapHeader, rows: [][]string{row}}
		return append(bad, compareGolden("overlap", got, z.src.golden["overlap"], overlapSpec.keys, []string{"pareto"})...)
	}
	orig := z.find(op.model, "orig", false).want
	deltaPct := max(op.delta, 0)
	e := res.Energy
	row := []string{op.model, op.config, ftoa(deltaPct), "", utoa(res.Cycles),
		ftoa(float64(res.Cycles) / float64(orig.Cycles)), ftoa(e.Total() / orig.Energy.Total()),
		ftoa(e.MainDyn + e.MainLeak), ftoa(e.CommDyn + e.CommLeak),
		ftoa(e.CompDyn + e.CompLeak), ftoa(e.LocalDyn + e.LocalLeak)}
	got := table{header: fig10Header, rows: [][]string{row}}
	return append(bad, compareGolden("fig10", got, z.src.golden["fig10"], fig10Spec.keys, []string{"accuracy"})...)
}

func (z *simZoo) find(model, config string, overlap bool) *zooOp {
	for _, op := range z.ops {
		if op.model == model && op.config == config && op.overlap == overlap {
			return op
		}
	}
	panic("sim-zoo: no op " + model + "/" + config)
}

// resultInvariants holds for any seed: the model totals are the sums of
// the layer results, and no layer simulates more rounds than it has.
func resultInvariants(name string, res *accel.Result) []string {
	var bad []string
	var sum accel.Result
	for _, l := range res.Layers {
		sum.Cycles += l.Cycles
		sum.Latency.Memory += l.Latency.Memory
		sum.Latency.Communication += l.Latency.Communication
		sum.Latency.Computation += l.Latency.Computation
		sum.Latency.DecodeStall += l.Latency.DecodeStall
		e, se := l.Energy, &sum.Energy
		se.CommDyn += e.CommDyn
		se.CommLeak += e.CommLeak
		se.CompDyn += e.CompDyn
		se.CompLeak += e.CompLeak
		se.LocalDyn += e.LocalDyn
		se.LocalLeak += e.LocalLeak
		se.MainDyn += e.MainDyn
		se.MainLeak += e.MainLeak
		t, st := l.Traffic, &sum.Traffic
		st.DRAMReadWords += t.DRAMReadWords
		st.DRAMWriteWords += t.DRAMWriteWords
		st.NoCFlits += t.NoCFlits
		st.FlitHops += t.FlitHops
		st.LinkHops += t.LinkHops
		st.CorruptFlits += t.CorruptFlits
		st.Retransmits += t.Retransmits
		if l.SimRounds > l.Rounds || l.SimRounds < 1 {
			bad = append(bad, fmt.Sprintf("%s: layer %s simulated %d of %d rounds", name, l.Name, l.SimRounds, l.Rounds))
		}
	}
	if sum.Cycles != res.Cycles || sum.Latency != res.Latency || sum.Energy != res.Energy || sum.Traffic != res.Traffic {
		bad = append(bad, fmt.Sprintf("%s: model totals are not the sum of the layers", name))
	}
	return bad
}

// layers reports the simulated counts of one sweep (summed from each
// op's first result, which every repeat reproduced) and the host time
// per simulated flit over the untraced passes.
func (z *simZoo) layers(untraced [][]opResult, _ *obs.Observer) map[string]float64 {
	m := map[string]float64{}
	var rounds, simRounds int
	var simFlits float64
	for _, op := range z.ops {
		r := op.want
		m["accel.sim_cycles"] += float64(r.Cycles)
		m["accel.energy_uj"] += r.Energy.Total() / 1e6
		m["accel.memory_cycles"] += float64(r.Latency.Memory)
		m["accel.comm_cycles"] += float64(r.Latency.Communication)
		m["accel.compute_cycles"] += float64(r.Latency.Computation)
		m["accel.decode_stall_cycles"] += float64(r.Latency.DecodeStall)
		m["noc.flits"] += float64(r.Traffic.NoCFlits)
		m["noc.flit_hops"] += float64(r.Traffic.FlitHops)
		m["noc.dram_read_words"] += float64(r.Traffic.DRAMReadWords)
		m["noc.dram_write_words"] += float64(r.Traffic.DRAMWriteWords)
		for _, l := range r.Layers {
			rounds += l.Rounds
			simRounds += l.SimRounds
			// Traffic is reported scaled to all rounds; the host simulated
			// only SimRounds of them.
			simFlits += float64(l.Traffic.NoCFlits) * float64(l.SimRounds) / float64(l.Rounds)
		}
	}
	m["accel.rounds"] = float64(rounds)
	m["accel.sim_rounds"] = float64(simRounds)
	m["accel.extrapolated_share"] = 1 - float64(simRounds)/float64(rounds)
	var ns float64
	for _, p := range untraced {
		for _, r := range p {
			ns += float64(r.dur.Nanoseconds())
		}
	}
	m["accel.host_ns_per_flit"] = ns / (simFlits * float64(len(untraced)))
	return m
}

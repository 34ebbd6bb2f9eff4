package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Model geometry and serving settings, fixed to ipuserve's defaults.
const (
	width      = 1024
	classes    = 10
	weightSeed = 42
	maxBatch   = 64
	maxDelay   = 2 * time.Millisecond

	// poolSize distinct feature vectors are generated per run.
	poolSize = 256
	// The end-to-end run sets the workload up at least minSetups times and
	// until setupBudget of wall time has been spent (at most maxSetups);
	// setup_s is the median set-up CPU time.
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 4 * time.Second

	// compressed is the model RegisterCompressed derives from dense.
	compressed = "dense-lr"
)

// compressOpts is the post-hoc compression dense-lr is served at.
var compressOpts = nn.CompressOptions{Tolerance: 0.75, Seed: weightSeed}

// baseMethods maps the spec-built model names to their Table 4 methods.
var baseMethods = map[string]nn.Method{
	"dense":     nn.Baseline,
	"butterfly": nn.Butterfly,
	"pixelfly":  nn.Pixelfly,
}

// allModels is every model any workload serves, in report order.
var allModels = []string{"dense", "butterfly", "pixelfly", compressed}

// workload is one traffic mix. Requests pick a served model uniformly.
type workload struct {
	name   string
	models []string
	// shards is the modelled IPU count every model is sharded across.
	shards int
	// rate is the open-loop Poisson arrival rate in requests per second.
	rate float64
	// swapEvery re-registers butterfly with a new seed at this interval
	// while traffic runs (0 = never).
	swapEvery time.Duration
}

var workloads = []workload{
	{name: "steady", models: []string{"dense", "butterfly", "pixelfly"}, shards: 1, rate: 300},
	{name: "sharded", models: []string{"butterfly", "pixelfly"}, shards: 2, rate: 700},
	{name: "swap", models: []string{"butterfly", compressed}, shards: 1, rate: 400, swapEvery: time.Second},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) serves(model string) bool {
	for _, m := range w.models {
		if m == model {
			return true
		}
	}
	return false
}

// options returns the registry options of the workload: ipuserve's batcher
// settings (Workers 0 = GOMAXPROCS) and the workload's shard count.
func (w workload) options() serve.Options {
	o := serve.Options{
		Batcher: serve.BatcherConfig{MaxBatch: maxBatch, MaxDelay: maxDelay},
		NumIPUs: w.shards,
	}
	if w.shards > 1 {
		o.Shards = w.shards
	}
	return o
}

// swapSeeds returns the weight seeds of the butterfly re-registrations a
// run of length d makes, derived from the workload seed.
func (w workload) swapSeeds(seed int64, d time.Duration) []int64 {
	if w.swapEvery <= 0 {
		return nil
	}
	var out []int64
	for k := 1; time.Duration(k)*w.swapEvery < d; k++ {
		out = append(out, seed*1000+int64(k))
	}
	return out
}

func spec(name string, seed int64) serve.ModelSpec {
	return serve.ModelSpec{Name: name, Method: baseMethods[name], N: width, Classes: classes, Seed: seed}
}

// inputs are the generated feature vectors and their request bodies,
// encoded once outside the timed window.
type inputs struct {
	features [][]float32
	bodies   map[string][][]byte
	encode   []time.Duration // one json.Marshal of a PredictRequest per body
}

func makeInputs(seed int64, models []string) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{features: make([][]float32, poolSize), bodies: map[string][][]byte{}}
	for i := range in.features {
		v := make([]float32, width)
		for j := range v {
			v[j] = 2*rng.Float32() - 1
		}
		in.features[i] = v
	}
	for _, m := range models {
		bodies := make([][]byte, poolSize)
		for i, f := range in.features {
			t0 := time.Now()
			b, err := json.Marshal(serve.PredictRequest{Model: m, Features: f})
			in.encode = append(in.encode, time.Since(t0))
			if err != nil {
				return nil, fmt.Errorf("encoding request body: %w", err)
			}
			bodies[i] = b
		}
		in.bodies[m] = bodies
	}
	return in, nil
}

// matrix stacks the feature pool into one batch.
func (in *inputs) matrix() *tensor.Matrix {
	x := tensor.New(len(in.features), width)
	for i, f := range in.features {
		copy(x.Row(i), f)
	}
	return x
}

// refKey names one set of served weights: a model and its weight seed.
type refKey struct {
	model string
	seed  int64
}

// references holds the networks rebuilt from their specs with the public
// constructors and their expected scores for every pooled input.
type references struct {
	nets   map[refKey]*nn.Sequential
	scores map[refKey][][]float32
}

// buildReferences rebuilds every network a run may serve — including each
// butterfly seed a swap installs — and computes its scores with Infer.
func buildReferences(w workload, in *inputs, swapSeeds []int64) (*references, error) {
	r := &references{nets: map[refKey]*nn.Sequential{}, scores: map[refKey][][]float32{}}
	x := in.matrix()
	add := func(k refKey, net *nn.Sequential) {
		y := net.Infer(x)
		rows := make([][]float32, y.Rows)
		for i := range rows {
			rows[i] = append([]float32(nil), y.Row(i)...)
		}
		r.nets[k], r.scores[k] = net, rows
	}
	for _, m := range w.models {
		if m == compressed {
			net, _, err := buildNet("dense", weightSeed).Compress(compressOpts)
			if err != nil {
				return nil, fmt.Errorf("compressing reference dense: %w", err)
			}
			add(refKey{m, weightSeed}, net)
			continue
		}
		add(refKey{m, weightSeed}, buildNet(m, weightSeed))
	}
	for _, s := range swapSeeds {
		add(refKey{"butterfly", s}, buildNet("butterfly", s))
	}
	return r, nil
}

// buildNet builds a spec model's network exactly as the registry does.
func buildNet(name string, seed int64) *nn.Sequential {
	return nn.BuildSHL(baseMethods[name], width, classes, rand.New(rand.NewSource(seed)))
}

// deployment is one set-up registry serving a workload's models.
type deployment struct {
	reg    *serve.Registry
	srv    *serve.Server
	models map[string]*serve.Model
	// setup is the wall time from NewRegistry until the handler is ready,
	// and setupCPU the process CPU time spent meanwhile.
	setup, setupCPU time.Duration
	// ipuBytes sums the modelled device bytes of each served model's
	// largest-bucket program.
	ipuBytes int
	// compressReports is RegisterCompressed's per-layer verdict (nil when
	// the workload serves no compressed model).
	compressReports []nn.LayerReport
}

// deploy builds a registry for the workload and warms every (model,
// power-of-two batch, shards) program with one ModelledCost call and one
// batch of concurrent Predicts, so the measured traffic finds them ready.
// Spans around each public call are logged in sp.
func deploy(w workload, opts serve.Options, in *inputs, sp *spanLog) (*deployment, error) {
	t0, cpu0 := time.Now(), readProcessStats().cpu
	d := &deployment{reg: serve.NewRegistry(opts), models: map[string]*serve.Model{}}
	for _, name := range w.models {
		m, err := d.register(name, sp)
		if err != nil {
			d.close()
			return nil, err
		}
		d.models[name] = m
	}
	for _, name := range w.models {
		bytes, err := warm(d.models[name], in, sp)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("warming %s: %w", name, err)
		}
		d.ipuBytes += bytes
	}
	d.srv = serve.NewServer(d.reg)
	d.setup, d.setupCPU = time.Since(t0), readProcessStats().cpu-cpu0
	return d, nil
}

// warm compiles every batch bucket of one model and returns the modelled
// device bytes of its largest-bucket program.
func warm(m *serve.Model, in *inputs, sp *spanLog) (int, error) {
	var deviceBytes int
	for b := 1; b <= maxBatch; b *= 2 {
		t := time.Now()
		cost, err := m.ModelledCost(b)
		sp.since("ModelledCost", t)
		if err != nil {
			return 0, err
		}
		if b == maxBatch {
			deviceBytes = cost.DeviceBytes
		}
		errs := make(chan error, b)
		for i := 0; i < b; i++ {
			go func(f []float32) {
				_, err := m.Predict(context.Background(), f)
				errs <- err
			}(in.features[i%len(in.features)])
		}
		for i := 0; i < b; i++ {
			if err := <-errs; err != nil {
				return 0, err
			}
		}
	}
	return deviceBytes, nil
}

// register installs one model under its name — the compressed model
// after registering its dense source — unless it is already installed.
func (d *deployment) register(name string, sp *spanLog) (*serve.Model, error) {
	if m, ok := d.reg.Get(name); ok {
		return m, nil
	}
	if name != compressed {
		t := time.Now()
		m, err := d.reg.Register(spec(name, weightSeed))
		sp.since("Register", t)
		if err != nil {
			return nil, fmt.Errorf("registering %s: %w", name, err)
		}
		return m, nil
	}
	if _, err := d.register("dense", sp); err != nil {
		return nil, err
	}
	t := time.Now()
	m, reports, err := d.reg.RegisterCompressed(compressed, "dense", compressOpts)
	sp.since("RegisterCompressed", t)
	if err != nil {
		return nil, fmt.Errorf("registering %s: %w", compressed, err)
	}
	d.compressReports = reports
	return m, nil
}

func (d *deployment) close() { d.reg.Close() }

// Package shard partitions compiled inference plans (nn.Plan) across
// several modelled IPUs connected by IPU-Links — the production answer
// when a model, or the batch riding through it, no longer fits one chip's
// SRAM (the paper's binding constraint).
//
// Two partitioning strategies are implemented, chosen per plan by a
// cost-based planner over the ipu.LinkConfig exchange model:
//
//   - Tensor parallel: every wide layer is split into per-shard column
//     slices — each IPU holds 1/S of the weights and produces 1/S of the
//     layer's output, followed by an all-gather so the next layer sees the
//     full activation. Butterfly chains split specially: the first
//     log2(N/S) factor stages are block-local to a shard's slice, and only
//     the top log2(S) "global" stages need a pairwise exchange round each —
//     the property (Liu et al., arXiv:2002.03400) that makes structured
//     layers cheap to shard.
//   - Pipeline: contiguous step ranges are assigned to consecutive IPUs
//     and activations stream across one link per boundary. This is the
//     fallback when a layer is not splittable (fastfood and circulant mix
//     all features through Hadamard/FFT passes whose per-output cone is the
//     whole input, and their weights are O(N) anyway).
//
// Host-side execution verifies the numerics: shards run on a
// goroutine-per-IPU pool over plan-owned per-shard workspaces, with the
// all-gather realized as writes into a shared full-width activation arena
// and a barrier per step. Every element is produced by the same float32
// expression as the unsharded plan, so ShardedPlan.Execute is bit-for-bit
// equal to nn.Plan.Execute at any shard count — while the per-IPU memory
// and the exchange traffic of a real multi-chip run are priced
// analytically by the Cost model.
//
// ShardedPlan is the one measured executor: step clocks, per-kernel
// accounting, the phase timeline and pprof labels live here. A one-shard
// ShardedPlan is the identity lowering (every plan step unchanged on IPU
// 0, no worker goroutines) and is how single-IPU programs are served;
// nn.Plan.Execute stays the plain reference executor.
package shard

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/ipu"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/tensor"
)

// Strategy selects how a plan is partitioned across IPUs.
type Strategy int

const (
	// TensorParallel splits every layer into per-shard column slices with
	// an all-gather between layers.
	TensorParallel Strategy = iota
	// Pipeline assigns contiguous step ranges to consecutive IPUs.
	Pipeline
)

func (s Strategy) String() string {
	switch s {
	case TensorParallel:
		return "tensor-parallel"
	case Pipeline:
		return "pipeline"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Topology describes the modelled multi-IPU system a plan is sharded onto.
type Topology struct {
	// NumIPUs is how many processors the topology offers (the shard-count
	// ceiling; the planner may use fewer).
	NumIPUs int
	// IPU is the per-processor model (memory, compute classes).
	IPU ipu.Config
	// Link is the inter-processor exchange model.
	Link ipu.LinkConfig
}

// DefaultTopology returns n GC200s on an IPU-Link fabric — the M2000 pod
// building block the paper's hardware belongs to.
func DefaultTopology(n int) Topology {
	return Topology{NumIPUs: n, IPU: ipu.GC200(), Link: ipu.IPULink()}
}

func (t Topology) withDefaults() Topology {
	if t.NumIPUs <= 0 {
		t.NumIPUs = 1
	}
	if t.IPU.Tiles == 0 {
		t.IPU = ipu.GC200()
	}
	if t.Link.LinkBandwidth == 0 {
		t.Link = ipu.IPULink()
	}
	return t
}

// step is one barrier-delimited micro-step of the sharded program: per
// shard, a kernel writing that shard's slice of the step output into the
// shared full-width activation arena. A nil kernel means the shard is idle
// this step (pipeline stages it does not own, exchange-only steps). Layer
// lowering may emit several micro-steps per source layer — a butterfly
// emits one per factor stage, since the global stages must see the other
// shards' writes from the previous stage.
type step struct {
	name string
	cols int
	// src is the index of the plan step this micro-step was lowered from —
	// the join key back to the unsharded plan's per-step kernel family,
	// flop model and modelled cost (several micro-steps may share one src).
	src int
	// variant names the kernel shape the micro-step's kernels run —
	// pipeline micro-steps inherit the plan step's variant,
	// tensor-parallel column windows record their own ("tiled4x8" for
	// packed dense-family windows, "reference" for the butterfly and
	// pixelfly window steps, "" for non-kernel steps).
	variant string
	run     []func(dst, x *tensor.Matrix, ws *tensor.Workspace)
}

// engine holds everything the worker goroutines touch. It is split from
// ShardedPlan so the workers keep only the engine alive: the plan's
// finalizer can then stop them once the plan itself becomes unreachable
// (pooled plans are dropped by cache eviction, never closed explicitly).
type engine struct {
	shards   int
	maxBatch int
	in, out  int
	steps    []step

	bufA, bufB []float32
	actA, actB tensor.Matrix
	ws         []*tensor.Workspace

	// Measured phase timings of the most recent Execute: per micro-step
	// wall clock (orchestrator-written), per-shard accumulated kernel
	// time (each shard writes only its own slot; the barrier orders the
	// writes before the orchestrator reads), and the whole batch's wall
	// clock. The serving layer lines these up against the analytic Cost
	// model — measured compute vs modelled compute, and wall minus the
	// slowest shard's compute as the sync/exchange proxy.
	stepNanos    []int64
	computeNanos []int64
	wallNanos    int64

	// Per-kernel accounting: kern/flopsPerRow/bytesPerRow carry each
	// micro-step's kernel family and per-sample work (the plan step's
	// figures divided over its micro-steps), recorded into kstats when a
	// sink is installed. modelSec is the modelled per-micro-step seconds
	// of one MaxBatch execution (compute under the chosen strategy, with
	// the source step's exchange charged to its last micro-step) — the
	// analytic counterpart the drift detector lines stepNanos up against.
	kstats      *obs.KernelStats
	kern        []obs.Kernel
	variants    []string
	flopsPerRow []int64
	bytesPerRow []int64
	modelSec    []float64

	// Modelled phase split of modelSec (compute + exchange == modelSec
	// per micro-step): the timeline recorder uses the exchange half to
	// decide whether a post-kernel gap is priced IPU-Link traffic or pure
	// barrier skew, and TimelineMeta exports both as the modelled
	// counterpart of the measured phase spans.
	modelCompSec []float64
	modelExchSec []float64

	// Flight recorder state: rec is installed per batch by the serving
	// layer (nil in steady state — then no events are emitted at all);
	// curBatch/execStart are published before the per-step channel sends,
	// which order them for the workers. Each shard records its compute
	// span into its own fixed slot; the orchestrator fills in sync gaps
	// and bubbles after each barrier.
	rec       *timeline.Recorder
	curBatch  *timeline.Batch
	execStart time.Time

	// pprof goroutine labels: pprofBase is the serving layer's labelled
	// context (model=...); pprofCtxs[k] adds ipu=k. Workers apply their
	// label lazily on wake (workerCtx[k] is each worker's privately-owned
	// last-applied marker); the orchestrator wears pprofCtxs[0] for the
	// span of Execute.
	pprofBase context.Context
	pprofCtxs []context.Context
	workerCtx []context.Context

	// Orchestration state: the orchestrator publishes curDst/curX/stepIdx,
	// wakes the workers through their start channels (the channel send is
	// the happens-before edge), runs shard 0 inline, and collects one done
	// token per worker as the barrier.
	curDst, curX *tensor.Matrix
	stepIdx      int
	start        []chan struct{}
	done         chan struct{}
	quit         chan struct{}

	// Wavefront state (pipeline lowerings compiled at micro > 1 with at
	// least two stages; nil stageFirst means the barrier loop runs).
	// A batch splits into waveM = min(micro, rows) contiguous row chunks
	// streamed through the stages GPipe-style: stage k runs micro-batch j
	// while stage k+1 runs j−1. Each stage owns a contiguous micro-step
	// range, private ping-pong scratch for intra-stage activations, and a
	// double-buffered handoff arena per boundary; ready/free token
	// channels replace the global barrier with stage-local handoffs.
	micro      int             // configured wavefront width (1 = barrier loop)
	waveM      int             // effective width of the current batch
	wave       bool            // mode flag workers read after their start token
	rowPts     []int           // micro+1 row boundaries of the current batch
	stageFirst []int           // per stage: first owned micro-step
	stageLast  []int           // per stage: last owned micro-step
	scratch    [][2][]float32  // per stage: intra-stage ping-pong arenas
	hand       [][2][]float32  // per boundary: double-buffered handoff
	ready      []chan struct{} // per boundary: micro-batch produced
	free       []chan struct{} // per boundary: handoff slot free (primed 2)
	outBuf     []float32       // final stage's full-batch output arena
	wfOut      tensor.Matrix   // returned header over outBuf
	wfDst      []tensor.Matrix // per stage: reusable kernel dst header
	wfSrc      []tensor.Matrix // per stage: reusable kernel src header
	// Per-stage finish offset of the current batch (nanos from
	// execStart), written by each stage before its done token when a
	// timeline batch is being recorded — the orchestrator turns the gap
	// to the batch's wall into the residual drain bubble.
	stageEndNanos []int64
}

// ShardedPlan is a compiled inference program on one or more modelled
// IPUs. Like nn.Plan it owns its activation buffers and must not be used
// from two goroutines at once; pool instances for concurrent serving.
type ShardedPlan struct {
	e        *engine
	topo     Topology
	strategy Strategy
	cost     Cost
}

// Compile partitions a compiled plan across shards IPUs of the topology,
// letting the cost planner choose the strategy: tensor-parallel when every
// layer is splittable and its modelled latency (compute/S plus all-gather
// and butterfly exchange rounds) beats pipeline's, pipeline otherwise.
// Pipeline plans also inherit the planner's wavefront width (the
// micro-batch count minimizing modelled latency). shards must be a power
// of two within the topology.
func Compile(pl *nn.Plan, topo Topology, shards int) (*ShardedPlan, error) {
	cost, err := Estimate(pl, pl.MaxBatch(), shards, topo)
	if err != nil {
		return nil, err
	}
	return CompileMicro(pl, topo, shards, cost.Strategy, cost.MicroBatches)
}

// CompileMicro is Compile with the partitioning strategy and the pipeline
// wavefront width forced: micro 0 lets the cost model pick, 1 pins the
// classic one-batch barrier loop, and micro > 1 compiles the
// multi-micro-batch wavefront executor (pipeline strategy with at least
// two effective stages; tensor-parallel plans ignore micro). Execute stays
// bit-for-bit identical to nn.Plan.Execute at every width — micro-batches
// are contiguous row slices and every kernel is row-wise. The compiled
// plan shares pl's lowered kernels and packed weight panels, so any
// number of ShardedPlans (one per pooled worker) can be compiled from one
// nn.Plan.
func CompileMicro(pl *nn.Plan, topo Topology, shards int, strategy Strategy, micro int) (*ShardedPlan, error) {
	topo = topo.withDefaults()
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("shard: shard count %d must be a positive power of two", shards)
	}
	if shards > topo.NumIPUs {
		return nil, fmt.Errorf("shard: %d shards exceed topology of %d IPUs", shards, topo.NumIPUs)
	}
	// Effective engine width: a pipeline stage must own at least one
	// step, so shard counts past the plan's step count clamp — trailing
	// IPUs would otherwise idle every step, skewing the per-IPU phase
	// accounting and the bubble gauge (the cost model clamps identically
	// and surfaces the depth as Cost.PipelineStages).
	eff := shards
	if strategy == Pipeline {
		if n := pl.NumSteps(); eff > n {
			eff = n
		}
	}
	var steps []step
	var err error
	switch strategy {
	case TensorParallel:
		steps, err = lowerTensorParallel(pl, shards)
	case Pipeline:
		steps, err = lowerPipeline(pl, eff)
	default:
		return nil, fmt.Errorf("shard: unknown strategy %v", strategy)
	}
	if err != nil {
		return nil, err
	}
	cost, err := estimateMicro(pl, pl.MaxBatch(), shards, topo, strategy, micro)
	if err != nil {
		return nil, err
	}

	e := &engine{
		shards:   eff,
		maxBatch: pl.MaxBatch(),
		in:       pl.InputWidth(),
		out:      pl.OutputWidth(),
		steps:    steps,
		micro:    1,
		done:     make(chan struct{}, eff),
		quit:     make(chan struct{}),
	}
	if strategy == Pipeline && cost.MicroBatches > 1 {
		e.micro = cost.MicroBatches
	}
	// The barrier loop ping-pongs step outputs between the two arenas by
	// step parity, so each is sized to the widest step landing in it —
	// as nn.Plan sizes its own, which keeps a one-shard program's arenas
	// exactly the plan's.
	wA, wB := 0, 0
	for i, st := range steps {
		if i%2 == 0 {
			wA = max(wA, st.cols)
		} else {
			wB = max(wB, st.cols)
		}
	}
	e.bufA = make([]float32, e.maxBatch*wA)
	e.bufB = make([]float32, e.maxBatch*wB)
	e.stepNanos = make([]int64, len(steps))
	e.computeNanos = make([]int64, eff)

	// Annotate each micro-step with its share of the source plan step's
	// kernel accounting figures and modelled cost: a source step lowered
	// into M micro-steps (a butterfly's per-stage sweeps) spreads its
	// per-row flops/bytes and modelled compute evenly over the M, so the
	// totals match the plan's own accounting exactly.
	counts := make([]int, pl.NumSteps())
	for i := range steps {
		counts[steps[i].src]++
	}
	e.kern = make([]obs.Kernel, len(steps))
	e.variants = make([]string, len(steps))
	e.flopsPerRow = make([]int64, len(steps))
	e.bytesPerRow = make([]int64, len(steps))
	for i := range steps {
		src := steps[i].src
		n := int64(counts[src])
		e.kern[i] = pl.StepKernel(src)
		e.variants[i] = steps[i].variant
		e.flopsPerRow[i] = pl.StepFlopsPerRow(src) / n
		e.bytesPerRow[i] = pl.StepArenaBytesPerRow(src) / n
	}
	e.modelCompSec, e.modelExchSec = modelledMicroPhases(pl, steps, pl.MaxBatch(), eff, topo, strategy)
	e.modelSec = make([]float64, len(steps))
	for i := range e.modelSec {
		e.modelSec[i] = e.modelCompSec[i] + e.modelExchSec[i]
	}
	if e.micro > 1 && eff > 1 {
		e.buildWavefront()
	}
	e.workerCtx = make([]context.Context, eff)
	e.ws = make([]*tensor.Workspace, eff)
	for k := range e.ws {
		e.ws[k] = tensor.NewWorkspace()
	}
	for k := 1; k < eff; k++ {
		c := make(chan struct{}, 1)
		e.start = append(e.start, c)
		go e.workerLoop(k, c)
	}
	p := &ShardedPlan{e: e, topo: topo, strategy: strategy, cost: cost}
	if eff > 1 {
		// Workers park on their start channels; if the plan is dropped
		// without Close (pooled plans are), the finalizer releases them.
		// A one-shard plan has no workers and no finalizer, so a dropped
		// one is freed by the first collection that finds it unreachable.
		runtime.SetFinalizer(p, func(sp *ShardedPlan) { sp.e.stop() })
	}

	// One warm-up execution, as in nn.CompilePlan: it records every
	// per-shard workspace's demand, and one more reset each grows the
	// arenas to their exact steady-state size.
	if _, err := p.Execute(tensor.New(e.maxBatch, e.in)); err != nil {
		p.Close()
		return nil, err
	}
	for _, w := range e.ws {
		w.Reset()
	}
	return p, nil
}

// buildWavefront sizes the wavefront executor's stage-local state: the
// owned micro-step range per stage, per-stage scratch and per-boundary
// handoff arenas (each sized for the largest micro-batch,
// ceil(maxBatch/micro) rows), the token channels, and the full-batch
// output arena the final stage writes row slices into. Everything is
// preallocated here so Execute stays allocation-free.
func (e *engine) buildWavefront() {
	S := e.shards
	e.stageFirst = make([]int, S)
	e.stageLast = make([]int, S)
	for s := range e.stageFirst {
		e.stageFirst[s] = -1
	}
	for i := range e.steps {
		for k, f := range e.steps[i].run {
			if f == nil {
				continue
			}
			if e.stageFirst[k] < 0 {
				e.stageFirst[k] = i
			}
			e.stageLast[k] = i
		}
	}
	microCap := (e.maxBatch + e.micro - 1) / e.micro
	e.rowPts = make([]int, e.micro+1)
	e.scratch = make([][2][]float32, S)
	e.hand = make([][2][]float32, S-1)
	e.ready = make([]chan struct{}, S-1)
	e.free = make([]chan struct{}, S-1)
	for s := 0; s < S; s++ {
		w := 0
		for i := e.stageFirst[s]; i < e.stageLast[s]; i++ {
			if e.steps[i].cols > w {
				w = e.steps[i].cols
			}
		}
		if w > 0 {
			e.scratch[s] = [2][]float32{
				make([]float32, microCap*w),
				make([]float32, microCap*w),
			}
		}
		if s < S-1 {
			bw := e.steps[e.stageLast[s]].cols
			e.hand[s] = [2][]float32{
				make([]float32, microCap*bw),
				make([]float32, microCap*bw),
			}
			e.ready[s] = make(chan struct{}, e.micro)
			e.free[s] = make(chan struct{}, 2)
			e.free[s] <- struct{}{}
			e.free[s] <- struct{}{}
		}
	}
	e.outBuf = make([]float32, e.maxBatch*e.out)
	e.wfDst = make([]tensor.Matrix, S)
	e.wfSrc = make([]tensor.Matrix, S)
	e.stageEndNanos = make([]int64, S)
}

// Cost returns the modelled per-IPU memory and exchange cost of one batch.
func (p *ShardedPlan) Cost() Cost { return p.cost }

// MaxBatch returns the largest row count Execute accepts.
func (p *ShardedPlan) MaxBatch() int { return p.e.maxBatch }

// InputWidth returns the feature width the plan expects.
func (p *ShardedPlan) InputWidth() int { return p.e.in }

// OutputWidth returns the width of the result matrix.
func (p *ShardedPlan) OutputWidth() int { return p.e.out }

// Steps returns the micro-step names in execution order.
func (p *ShardedPlan) Steps() []string {
	names := make([]string, len(p.e.steps))
	for i := range p.e.steps {
		names[i] = p.e.steps[i].name
	}
	return names
}

// StepKernel returns the Into-kernel family micro-step i executes — the
// attribution key of the per-kernel accounting, inherited from the
// source plan step.
func (p *ShardedPlan) StepKernel(i int) obs.Kernel { return p.e.kern[i] }

// StepVariant returns the micro-kernel variant name of micro-step i.
func (p *ShardedPlan) StepVariant(i int) string { return p.e.variants[i] }

// StepVariants returns the variant name of every micro-step, in
// execution order (index-aligned with Steps).
func (p *ShardedPlan) StepVariants() []string {
	out := make([]string, len(p.e.variants))
	copy(out, p.e.variants)
	return out
}

// Execute runs the sharded program over x (rows in [1, MaxBatch], cols ==
// InputWidth), dispatching each micro-step to the goroutine-per-IPU pool
// and barriering between steps. The result aliases plan-owned memory,
// valid until the next Execute. Output is bit-for-bit identical to the
// unsharded nn.Plan.Execute (and hence to Sequential.Infer).
func (p *ShardedPlan) Execute(x *tensor.Matrix) (*tensor.Matrix, error) {
	// The cleanup finalizer closes e.quit; without this the GC may deem p
	// dead the moment e is loaded (a caller's last use of p can be this
	// very call) and stop the workers mid-execution, deadlocking the
	// barrier below.
	defer runtime.KeepAlive(p)
	e := p.e
	if x.Cols != e.in {
		return nil, fmt.Errorf("%w: got %d columns, plan expects %d", nn.ErrPlanWidth, x.Cols, e.in)
	}
	if x.Rows < 1 || x.Rows > e.maxBatch {
		return nil, fmt.Errorf("%w: got %d rows, plan accepts 1..%d", nn.ErrPlanBatch, x.Rows, e.maxBatch)
	}
	for k := range e.computeNanos {
		e.computeNanos[k] = 0
	}
	// Sampled batches get a pooled event buffer; the common case is nil
	// and every timeline branch below is a single pointer test. curBatch
	// and execStart are published to the workers by the first step's
	// channel sends.
	tb := e.rec.Sample()
	if e.stageFirst != nil && x.Rows > 1 {
		return e.executeWave(x, tb)
	}
	if tb != nil {
		tb.Begin(len(e.steps), e.shards, x.Rows)
	}
	e.curBatch = tb
	if e.pprofCtxs != nil {
		// Wear ipu=0 for the inline shard's spans; restored below.
		pprof.SetGoroutineLabels(e.pprofCtxs[0])
	}
	execStart := time.Now()
	e.execStart = execStart
	cur := x
	useA := true
	for i := range e.steps {
		st := &e.steps[i]
		act, buf := &e.actB, e.bufB
		if useA {
			act, buf = &e.actA, e.bufA
		}
		act.Rows, act.Cols = x.Rows, st.cols
		act.Data = buf[:x.Rows*st.cols]
		e.curDst, e.curX, e.stepIdx = act, cur, i
		t0 := time.Now()
		for _, c := range e.start {
			c <- struct{}{}
		}
		e.runShard(0, st)
		for range e.start {
			<-e.done
		}
		e.stepNanos[i] = time.Since(t0).Nanoseconds()
		if e.kstats != nil {
			rows := int64(x.Rows)
			e.kstats.Record(e.kern[i], rows*e.flopsPerRow[i], rows*e.bytesPerRow[i], e.stepNanos[i])
		}
		if tb != nil && e.shards > 1 {
			e.recordStepGaps(tb, i, t0.Sub(execStart).Nanoseconds(), e.stepNanos[i])
		}
		cur = act
		useA = !useA
	}
	e.wallNanos = time.Since(execStart).Nanoseconds()
	if e.pprofCtxs != nil {
		pprof.SetGoroutineLabels(e.pprofBase)
	}
	if tb != nil {
		e.curBatch = nil
		e.rec.Finish(tb, e.wallNanos)
	}
	return cur, nil
}

// recordStepGaps fills in everything but the compute spans of micro-step
// i, after its barrier: for idle shards a bubble covering the whole step
// (pipeline fill/drain — tensor-parallel lowering gives every shard a
// kernel on every step), and for working shards the gap between their
// kernel's return and the barrier's close — exchange when the cost model
// prices IPU-Link traffic into this micro-step, barrier_wait otherwise.
// The barrier's done-tokens order the workers' compute-span writes
// before these reads. Multi-shard plans only: one shard has nothing to
// wait on, so its timeline is its compute spans alone.
func (e *engine) recordStepGaps(tb *timeline.Batch, i int, stepOff, stepDur int64) {
	st := &e.steps[i]
	gapPhase := timeline.BarrierWait
	if e.modelExchSec[i] > 0 {
		gapPhase = timeline.Exchange
	}
	stepEnd := stepOff + stepDur
	for k := 0; k < e.shards; k++ {
		if st.run[k] == nil {
			tb.Record(i, k, timeline.LaneWork, timeline.Bubble, stepOff, stepDur)
			continue
		}
		work := tb.Work(i, k)
		gapStart := work.StartNanos + work.DurNanos
		if gap := stepEnd - gapStart; gap > 0 {
			tb.Record(i, k, timeline.LaneSync, gapPhase, gapStart, gap)
		}
	}
}

// executeWave runs the multi-micro-batch wavefront schedule: the batch
// splits into waveM = min(micro, rows) contiguous row chunks, every
// stage (worker goroutine; stage 0 inline) streams all chunks through
// its owned step range, and stage-local ready/free tokens replace the
// global per-step barrier — stage k computes micro-batch j while stage
// k+1 computes j−1, so fill/drain shrinks from (S−1)/S of a stage's
// wall to (S−1)/(S−1+waveM).
func (e *engine) executeWave(x *tensor.Matrix, tb *timeline.Batch) (*tensor.Matrix, error) {
	waveM := e.micro
	if waveM > x.Rows {
		waveM = x.Rows
	}
	if tb != nil {
		tb.BeginMicro(len(e.steps), waveM, e.shards, x.Rows)
	}
	e.curBatch = tb
	for i := range e.stepNanos {
		e.stepNanos[i] = 0
	}
	e.waveM = waveM
	for j := 0; j <= waveM; j++ {
		e.rowPts[j] = j * x.Rows / waveM
	}
	e.curX = x
	e.wave = true
	if e.pprofCtxs != nil {
		pprof.SetGoroutineLabels(e.pprofCtxs[0])
	}
	execStart := time.Now()
	e.execStart = execStart
	// One wake per worker per batch (not per step): each stage drains
	// every micro-batch before sending its done token.
	for _, c := range e.start {
		c <- struct{}{}
	}
	e.runStage(0)
	for range e.start {
		<-e.done
	}
	e.wave = false
	e.wallNanos = time.Since(execStart).Nanoseconds()
	if e.kstats != nil {
		rows := int64(x.Rows)
		for i := range e.steps {
			e.kstats.Record(e.kern[i], rows*e.flopsPerRow[i], rows*e.bytesPerRow[i], e.stepNanos[i])
		}
	}
	if e.pprofCtxs != nil {
		pprof.SetGoroutineLabels(e.pprofBase)
	}
	if tb != nil {
		// Residual drain: every stage but the last finished before the
		// batch's wall and idles through the tail of the wavefront.
		// Recorded one virtual step past the stage's range so the trace
		// classifier names it bubble/drain.
		for k := 0; k < e.shards-1; k++ {
			if gap := e.wallNanos - e.stageEndNanos[k]; gap > 0 {
				tb.RecordMicro(e.stageLast[k]+1, waveM-1, k,
					timeline.LaneWork, timeline.Bubble, e.stageEndNanos[k], gap)
			}
		}
		e.curBatch = nil
		e.rec.Finish(tb, e.wallNanos)
	}
	e.wfOut.Rows, e.wfOut.Cols = x.Rows, e.out
	e.wfOut.Data = e.outBuf[:x.Rows*e.out]
	return &e.wfOut, nil
}

// runStage streams every micro-batch of the current wavefront batch
// through stage k's owned micro-steps. Called by worker k (stage 0 by
// the orchestrator inline). All state it touches is stage-owned or
// ordered by the token channels.
func (e *engine) runStage(k int) {
	first, last := e.stageFirst[k], e.stageLast[k]
	tb := e.curBatch
	w := e.ws[k]
	x := e.curX
	S := e.shards
	inW := e.in
	if k > 0 {
		inW = e.steps[e.stageLast[k-1]].cols
	}
	gapPhase := timeline.BarrierWait
	if k > 0 && e.modelExchSec[first-1] > 0 {
		gapPhase = timeline.Exchange
	} else if k == 0 && e.modelExchSec[last] > 0 {
		gapPhase = timeline.Exchange
	}
	for j := 0; j < e.waveM; j++ {
		lo, hi := e.rowPts[j], e.rowPts[j+1]
		nr := hi - lo
		// Acquire the input (upstream ready token) and the output slot
		// (downstream free token). The combined wait is this stage's
		// pipeline fill on the first micro-batch, a wavefront stall
		// after; stage 0 records its (backpressure-only) wait one step
		// past its range so it lands on an unused slot.
		var waitStart time.Time
		if tb != nil {
			waitStart = time.Now()
		}
		if k > 0 {
			<-e.ready[k-1]
		}
		if k < S-1 {
			<-e.free[k]
		}
		if tb != nil {
			off := waitStart.Sub(e.execStart).Nanoseconds()
			if dur := time.Since(waitStart).Nanoseconds(); dur > 0 {
				switch {
				case k == 0:
					tb.RecordMicro(last+1, j, k, timeline.LaneSync, gapPhase, off, dur)
				case j == 0:
					tb.RecordMicro(first-1, j, k, timeline.LaneWork, timeline.Bubble, off, dur)
				default:
					tb.RecordMicro(first-1, j, k, timeline.LaneSync, gapPhase, off, dur)
				}
			}
		}
		src, dst := &e.wfSrc[k], &e.wfDst[k]
		if k == 0 {
			src.Rows, src.Cols = nr, inW
			src.Data = x.Data[lo*inW : hi*inW]
		} else {
			src.Rows, src.Cols = nr, inW
			src.Data = e.hand[k-1][j&1][:nr*inW]
		}
		par := 0
		for i := first; i <= last; i++ {
			st := &e.steps[i]
			var data []float32
			switch {
			case i == last && k == S-1:
				data = e.outBuf[lo*e.out : hi*e.out]
			case i == last:
				data = e.hand[k][j&1]
			default:
				data = e.scratch[k][par]
				par ^= 1
			}
			dst.Rows, dst.Cols = nr, st.cols
			dst.Data = data[:nr*st.cols]
			w.Reset()
			t0 := time.Now()
			st.run[k](dst, src, w)
			d := time.Since(t0).Nanoseconds()
			e.stepNanos[i] += d
			e.computeNanos[k] += d
			if tb != nil {
				tb.RecordMicro(i, j, k, timeline.LaneWork, timeline.Compute,
					t0.Sub(e.execStart).Nanoseconds(), d)
			}
			if i == first && k > 0 {
				// The handoff input is consumed; let the upstream stage
				// overwrite the slot (micro-batch j+2 reuses it).
				e.free[k-1] <- struct{}{}
			}
			src, dst = dst, src
		}
		if k < S-1 {
			e.ready[k] <- struct{}{}
		}
	}
	if tb != nil {
		e.stageEndNanos[k] = time.Since(e.execStart).Nanoseconds()
	}
}

// SetKernelStats installs (or, with nil, removes) the per-kernel
// accounting sink Execute reports each micro-step's flops, arena bytes
// and measured time into — the sharded counterpart of
// nn.Plan.SetKernelStats. The sink is internally synchronized; only the
// orchestrator goroutine records.
func (p *ShardedPlan) SetKernelStats(ks *obs.KernelStats) { p.e.kstats = ks }

// SetTimeline installs (or, with nil, removes) the BSP phase flight
// recorder Execute samples batches into: per-shard compute spans,
// post-kernel exchange/barrier gaps, and pipeline fill/drain bubbles.
// With no recorder installed Execute emits no events at all. Must be
// called from the executing goroutine (the plan is single-caller, like
// SetKernelStats).
func (p *ShardedPlan) SetTimeline(rec *timeline.Recorder) { p.e.rec = rec }

// SetPprofLabels gives the execution goroutines pprof labels derived
// from base (the serving layer's model-labelled context) with ipu=<k>
// added per shard: workers pin theirs on next wake, and Execute wears
// ipu=0 for its inline shard. Idempotent per base context, so the
// serving layer can call it every batch for free.
func (p *ShardedPlan) SetPprofLabels(base context.Context) {
	e := p.e
	if base == nil || base == e.pprofBase {
		return
	}
	ctxs := make([]context.Context, e.shards)
	for k := range ctxs {
		ctxs[k] = pprof.WithLabels(base, pprof.Labels("ipu", strconv.Itoa(k)))
	}
	e.pprofBase = base
	e.pprofCtxs = ctxs
}

// TimelineMeta describes the plan to a flight recorder: micro-step names,
// kernel families, variants and the cost model's per-row modelled phase
// seconds. A one-shard plan is a single-IPU program, not a partition, so
// its meta carries no strategy, wavefront width or exchange pricing.
func (p *ShardedPlan) TimelineMeta(model string) *timeline.Meta {
	e := p.e
	kernels := make([]string, len(e.kern))
	for i, k := range e.kern {
		kernels[i] = k.String()
	}
	inv := 1 / float64(e.maxBatch)
	m := &timeline.Meta{
		Model:            model,
		Shards:           e.shards,
		Steps:            p.Steps(),
		Kernels:          kernels,
		Variants:         p.StepVariants(),
		ComputeSecPerRow: scaled(e.modelCompSec, inv),
	}
	if e.shards > 1 {
		m.Strategy = p.strategy.String()
		m.MicroBatches = e.micro
		m.ExchangeSecPerRow = scaled(e.modelExchSec, inv)
	}
	return m
}

// scaled returns v element-wise multiplied by s, as a fresh slice.
func scaled(v []float64, s float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * s
	}
	return out
}

// ModelledStepSeconds returns the modelled duration of each micro-step of
// one MaxBatch execution under the plan's topology and strategy
// (index-aligned with Steps/LastStepNanos): the source plan step's
// modelled compute spread over its micro-steps, with the step's exchange
// time charged to the last of them. The slice is plan-owned — copy to
// modify. Dividing by MaxBatch gives the per-row modelled cost the drift
// detector compares measured wall-clock against.
func (p *ShardedPlan) ModelledStepSeconds() []float64 { return p.e.modelSec }

// LastStepNanos returns the wall-clock duration, in nanoseconds, of each
// barrier-delimited micro-step of the most recent Execute (index-aligned
// with Steps). Plan-owned, overwritten by the next Execute.
func (p *ShardedPlan) LastStepNanos() []int64 { return p.e.stepNanos }

// LastComputeNanos returns each modelled IPU's accumulated kernel time
// over the most recent Execute — the measured per-shard compute phase.
// Plan-owned, overwritten by the next Execute.
func (p *ShardedPlan) LastComputeNanos() []int64 { return p.e.computeNanos }

// LastWallNanos returns the wall-clock duration of the most recent
// Execute. Wall minus the slowest shard's compute is the host-side
// proxy for the sync + exchange overhead the Cost model prices
// analytically.
func (p *ShardedPlan) LastWallNanos() int64 { return p.e.wallNanos }

// Close stops the worker goroutines. A closed plan must not be executed
// again; plans that are simply dropped are cleaned up by a finalizer, so
// calling Close is optional.
func (p *ShardedPlan) Close() {
	runtime.SetFinalizer(p, nil)
	p.e.stop()
}

func (e *engine) stop() {
	select {
	case <-e.quit:
	default:
		close(e.quit)
	}
}

func (e *engine) runShard(k int, st *step) {
	if f := st.run[k]; f != nil {
		w := e.ws[k]
		w.Reset()
		t0 := time.Now()
		f(e.curDst, e.curX, w)
		d := time.Since(t0).Nanoseconds()
		e.computeNanos[k] += d
		if tb := e.curBatch; tb != nil {
			// Each shard owns this (step, ipu) slot — lock-free write,
			// ordered before the orchestrator's read by the done token.
			tb.Record(e.stepIdx, k, timeline.LaneWork, timeline.Compute,
				t0.Sub(e.execStart).Nanoseconds(), d)
		}
	}
}

func (e *engine) workerLoop(k int, start <-chan struct{}) {
	for {
		select {
		case <-e.quit:
			return
		case <-start:
			// Apply this worker's ipu=k pprof label lazily: workerCtx[k]
			// is only ever touched by this goroutine, and pprofCtxs was
			// published by the start-channel send.
			if c := e.pprofCtxs; c != nil && e.workerCtx[k] != c[k] {
				e.workerCtx[k] = c[k]
				pprof.SetGoroutineLabels(c[k])
			}
			// e.wave was published by the start-channel send: one token
			// per batch under the wavefront (the worker drains its whole
			// stage), one per step under the barrier loop.
			if e.wave {
				e.runStage(k)
			} else {
				e.runShard(k, &e.steps[e.stepIdx])
			}
			e.done <- struct{}{}
		}
	}
}

// splitPoints returns the S+1 column boundaries slicing width columns into
// S near-equal contiguous shares: shard k owns [pts[k], pts[k+1]).
func splitPoints(width, shards int) []int {
	pts := make([]int, shards+1)
	for k := 0; k <= shards; k++ {
		pts[k] = k * width / shards
	}
	return pts
}

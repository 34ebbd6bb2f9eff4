package serve

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/shard"
)

// Metric family names exported by the serving stack. Everything carries
// the ipuserve_ prefix; per-model series add a model label, per-step and
// per-IPU series add step/ipu labels on top.
const (
	metRequests       = "ipuserve_requests_total"
	metErrors         = "ipuserve_errors_total"
	metLatency        = "ipuserve_request_seconds"
	metBatchSize      = "ipuserve_batch_size"
	metQueueDepth     = "ipuserve_batcher_queue_depth"
	metFlush          = "ipuserve_batcher_flush_total"
	metCacheHits      = "ipuserve_cache_hits_total"
	metCacheMisses    = "ipuserve_cache_misses_total"
	metCacheEvict     = "ipuserve_cache_evictions_total"
	metCacheEntries   = "ipuserve_cache_entries"
	metCacheCompile   = "ipuserve_cache_compile_seconds"
	metPlanStep       = "ipuserve_plan_step_seconds"
	metShardCompute   = "ipuserve_shard_compute_seconds"
	metShardExchange  = "ipuserve_shard_exchange_seconds"
	metFactorErr      = "ipuserve_model_factorization_error"
	metModelledReq    = "ipuserve_modelled_per_request_seconds"
	metModels         = "ipuserve_models"
	metUptime         = "ipuserve_uptime_seconds"
	metHTTPRequests   = "ipuserve_http_requests_total"
	metEncodeErrs     = "ipuserve_http_json_encode_errors_total"
	metKernelGflops   = "ipuserve_kernel_gflops"
	metKernelBytes    = "ipuserve_kernel_bytes_per_sec"
	metKernelVariant  = "ipuserve_kernel_variant"
	metDrift          = "ipuserve_cost_model_drift_ratio"
	metPhaseSeconds   = "ipuserve_phase_seconds"
	metBubbleFraction = "ipuserve_pipeline_bubble_fraction"
)

// registerHelp attaches the HELP strings once per registry so every
// scrape documents the families.
func registerHelp(reg *obs.Registry) {
	reg.Help(metRequests, "Requests served successfully, per model.")
	reg.Help(metErrors, "Requests that failed (bad input, stopped model, inference error), per model.")
	reg.Help(metLatency, "Host-side request latency from enqueue to response, per model.")
	reg.Help(metBatchSize, "Requests coalesced per micro-batch flush, per model.")
	reg.Help(metQueueDepth, "Assembled batches waiting for a worker, per model.")
	reg.Help(metFlush, "Micro-batch flushes by reason (full = MaxBatch reached, timeout = MaxDelay expired).")
	reg.Help(metCacheHits, "Program-cache lookups that rode an already-compiled program.")
	reg.Help(metCacheMisses, "Program-cache lookups that paid or waited on a compile.")
	reg.Help(metCacheEvict, "Cached programs dropped by model replacement or removal.")
	reg.Help(metCacheEntries, "Compiled programs currently cached.")
	reg.Help(metCacheCompile, "Wall time of modelled-IPU program compiles (cache misses).")
	reg.Help(metPlanStep, "Measured wall time of one compiled-plan step, per model and step.")
	reg.Help(metShardCompute, "Measured per-IPU kernel time of one sharded batch, per model and modelled IPU.")
	reg.Help(metShardExchange, "Sharded-batch wall time not covered by the slowest shard's compute - the measured sync/exchange proxy to compare against the modelled IPU-Link exchange.")
	reg.Help(metFactorErr, "Max per-layer relative Frobenius error of the factorization the model serves (0 = exact weights).")
	reg.Help(metModelledReq, "Modelled per-request seconds of the most recent batch bucket (compare against "+metLatency+").")
	reg.Help(metModels, "Models currently registered.")
	reg.Help(metUptime, "Seconds since the HTTP server started.")
	reg.Help(metHTTPRequests, "HTTP requests by path.")
	reg.Help(metEncodeErrs, "JSON responses that failed to encode (response abandoned mid-write).")
	reg.Help(metKernelGflops, "Measured GFLOP/s per Into-kernel family, cumulative over all executed plan steps.")
	reg.Help(metKernelBytes, "Measured activation-arena bytes/s per Into-kernel family, cumulative over all executed plan steps.")
	reg.Help(metKernelVariant, "Active micro-kernel variant per model and Into-kernel family (value is always 1; the variant label carries the information).")
	reg.Help(metDrift, "Measured per-row step seconds divided by the modelled IPU cost, per model and step (host/device scale; watch for change, not absolute level).")
	reg.Help(metPhaseSeconds, "Accumulated executor time per modelled IPU and BSP phase (compute/exchange/barrier_wait/bubble), extrapolated from the flight recorder's 1-in-N sampled batches by the sampling period.")
	reg.Help(metBubbleFraction, "Share of sampled per-IPU executor time spent in pipeline fill/drain bubbles (~0 for tensor-parallel and single-IPU models).")
}

// modelMetrics is the per-model instrument set, created once at install so
// the request hot path records by pointer without name lookups.
type modelMetrics struct {
	errors        *obs.Counter
	latency       *obs.Histogram
	modelled      *obs.Gauge
	factorization *obs.Gauge

	// Sharded-execution instruments; nil/empty for single-IPU models.
	shardCompute  []*obs.Histogram // indexed by modelled IPU
	shardExchange *obs.Histogram
}

func newModelMetrics(reg *obs.Registry, name string, shards int) *modelMetrics {
	lm := obs.L{Key: "model", Value: name}
	mm := &modelMetrics{
		errors:        reg.Counter(metErrors, lm),
		latency:       reg.Histogram(metLatency, obs.LatencyBuckets(), lm),
		modelled:      reg.Gauge(metModelledReq, lm),
		factorization: reg.Gauge(metFactorErr, lm),
	}
	if shards > 1 {
		mm.shardCompute = make([]*obs.Histogram, shards)
		for i := range mm.shardCompute {
			mm.shardCompute[i] = reg.Histogram(metShardCompute, obs.LatencyBuckets(),
				lm, obs.L{Key: "ipu", Value: strconv.Itoa(i)})
		}
		mm.shardExchange = reg.Histogram(metShardExchange, obs.LatencyBuckets(), lm)
	}
	return mm
}

// newBatcherMetrics wires the flush counters and batch-size histogram of
// one model's batcher. Built before the batcher so its goroutines see a
// fixed pointer.
func newBatcherMetrics(reg *obs.Registry, name string) *batcherMetrics {
	lm := obs.L{Key: "model", Value: name}
	return &batcherMetrics{
		flushFull:    reg.Counter(metFlush, lm, obs.L{Key: "reason", Value: "full"}),
		flushTimeout: reg.Counter(metFlush, lm, obs.L{Key: "reason", Value: "timeout"}),
		batchSize:    reg.Histogram(metBatchSize, obs.SizeBuckets(12), lm),
	}
}

// stepInst is the instrument set of one named executor step, shared by
// every batch bucket whose executor runs a step of that name (the planner
// picks the partitioning per bucket, so buckets may run different step
// lists): its latency histogram, the "step:<name>" span label, the kernel
// family and variant it dispatched to, and the cost-model drift
// accumulators. Duplicate step names (two identical layers) share one
// instrument set.
type stepInst struct {
	name    string
	span    string
	hist    *obs.Histogram
	kernel  string
	variant string

	// Drift accounting: measured nanos and rows, and the modelled seconds
	// of the same rows, priced by each batch's own executor — buckets can
	// price a step differently per row, so the modelled side accumulates
	// per batch rather than as one per-row constant. The drift ratio,
	// measured over modelled, is derived at scrape/report time. Its
	// absolute level reflects host-Go-loops vs modelled-IPU scale and is
	// expected far from 1; what the detector watches is the ratio changing
	// between runs.
	nanos    atomic.Int64
	rows     atomic.Int64
	modelled atomic.Uint64 // float64 bits, seconds
}

func (si *stepInst) addModelled(sec float64) {
	for {
		old := si.modelled.Load()
		if si.modelled.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sec)) {
			return
		}
	}
}

// drift returns the step's per-row measured and modelled seconds, their
// ratio (0 until the step has executed with a modelled cost) and the rows
// executed.
func (si *stepInst) drift() (measured, modelled, ratio float64, rows int64) {
	rows = si.rows.Load()
	if rows == 0 {
		return 0, 0, 0, 0
	}
	measured = float64(si.nanos.Load()) / float64(rows) / 1e9
	modelled = math.Float64frombits(si.modelled.Load()) / float64(rows)
	if measured > 0 && modelled > 0 {
		ratio = measured / modelled
	}
	return measured, modelled, ratio, rows
}

// stepObs is a model's per-step instrument registry: instruments by step
// name in first-seen order, and per batch bucket (indexed by log2 of the
// bucket) the bucket executor's step → instrument mapping, built on the
// bucket's first batch and read lock-free after.
type stepObs struct {
	mu      sync.Mutex
	byName  map[string]*stepInst
	order   []*stepInst
	layouts [64]atomic.Pointer[[]*stepInst]
}

// all returns the model's step instruments in first-seen order.
func (so *stepObs) all() []*stepInst {
	so.mu.Lock()
	defer so.mu.Unlock()
	return so.order
}

// layout returns the step instruments of the executor serving batch
// bucket (a power of two), nil before that bucket's first batch.
func (so *stepObs) layout(bucket int) []*stepInst {
	if l := so.layouts[bits.TrailingZeros(uint(bucket))].Load(); l != nil {
		return *l
	}
	return nil
}

// stepLayout returns the step instruments index-aligned with sp's steps,
// building them on the bucket's first batch: new step names get their
// histogram, drift gauge and kernel-variant gauge, and the model's flight
// recorder is described by its first executor.
func (m *Model) stepLayout(sp *shard.ShardedPlan) []*stepInst {
	so := &m.steps
	if l := so.layout(sp.MaxBatch()); l != nil {
		return l
	}
	so.mu.Lock()
	defer so.mu.Unlock()
	if l := so.layout(sp.MaxBatch()); l != nil {
		return l
	}
	if so.byName == nil {
		so.byName = map[string]*stepInst{}
	}
	lm := obs.L{Key: "model", Value: m.spec.Name}
	modelled := sp.ModelledStepSeconds()
	names := sp.Steps()
	insts := make([]*stepInst, len(names))
	for i, nm := range names {
		si := so.byName[nm]
		if si == nil {
			si = &stepInst{
				name:    nm,
				span:    "step:" + nm,
				kernel:  sp.StepKernel(i).String(),
				variant: sp.StepVariant(i),
				hist:    m.obsReg.Histogram(metPlanStep, obs.LatencyBuckets(), lm, obs.L{Key: "step", Value: nm}),
			}
			so.byName[nm] = si
			so.order = append(so.order, si)
			if modelled[i] > 0 {
				m.obsReg.GaugeFunc(metDrift, func() float64 { _, _, r, _ := si.drift(); return r },
					lm, obs.L{Key: "step", Value: nm})
			}
			// The active variant per kernel family, as a {model, kernel,
			// variant} gauge pinned to 1 — duplicate (family, variant)
			// pairs share one series via the registry's label dedup.
			if si.variant != "" {
				m.obsReg.Gauge(metKernelVariant, lm,
					obs.L{Key: "kernel", Value: si.kernel},
					obs.L{Key: "variant", Value: si.variant}).Set(1)
			}
		}
		insts[i] = si
	}
	so.layouts[bits.TrailingZeros(uint(sp.MaxBatch()))].Store(&insts)
	if m.timeline != nil {
		m.timeline.SetMeta(sp.TimelineMeta(m.spec.Name))
	}
	return insts
}

// KernelVariants returns the micro-kernel variants each Into-kernel
// family of the model's executed steps dispatched to, keyed by family
// name, sorted and distinct (batch buckets partitioned differently can
// run one family through different kernels). Nil until the first batch
// has executed (step instruments are built lazily).
func (m *Model) KernelVariants() map[string][]string {
	insts := m.steps.all()
	if len(insts) == 0 {
		return nil
	}
	out := map[string][]string{}
	for _, si := range insts {
		if si.variant != "" && !slices.Contains(out[si.kernel], si.variant) {
			out[si.kernel] = append(out[si.kernel], si.variant)
		}
	}
	for _, vs := range out {
		slices.Sort(vs)
	}
	return out
}

// observeExec harvests the executor's measured timings after one batch:
// per-step wall time into the execution report (for the request traces),
// the step/shard histograms, and the cost-model drift accumulators (rows
// is the executed batch size). Runs on the batcher worker, once per
// batch, allocation-free after the bucket's first batch builds its
// layout.
func (m *Model) observeExec(sp *shard.ShardedPlan, info *execInfo, rows int) {
	nanos := sp.LastStepNanos()
	n := min(len(nanos), maxTraceSteps)
	info.nsteps = n
	copy(info.stepNanos[:n], nanos[:n])
	if m.obsReg == nil {
		return
	}
	modelled := sp.ModelledStepSeconds()
	// ModelledStepSeconds prices one MaxBatch execution; scale it to the
	// rows this batch actually carried.
	scale := float64(rows) / float64(sp.MaxBatch())
	for i, si := range m.stepLayout(sp) {
		si.hist.Observe(float64(nanos[i]) / 1e9)
		si.nanos.Add(nanos[i])
		si.rows.Add(int64(rows))
		si.addModelled(modelled[i] * scale)
	}
	if m.mets == nil || len(m.mets.shardCompute) == 0 {
		return
	}
	comp := sp.LastComputeNanos()
	var slowest int64
	for i, c := range comp {
		if i < len(m.mets.shardCompute) {
			m.mets.shardCompute[i].Observe(float64(c) / 1e9)
		}
		if c > slowest {
			slowest = c
		}
	}
	// Wall time beyond the slowest shard's kernels is the host-side
	// sync/exchange proxy - the measured counterpart of the modelled
	// IPU-Link ExchangeSeconds in ProgramCost.
	if gap := sp.LastWallNanos() - slowest; gap > 0 && m.mets.shardExchange != nil {
		m.mets.shardExchange.Observe(float64(gap) / 1e9)
	}
}

// StepCostDrift is one row of the cost-model drift report: one plan
// step's modelled per-row cost next to its measured per-row wall-clock
// and their ratio.
type StepCostDrift struct {
	Step string `json:"step"`
	// Variant is the micro-kernel shape the step dispatched to at compile
	// time ("" for steps with no kernel family).
	Variant         string  `json:"variant,omitempty"`
	ModelledSeconds float64 `json:"modelled_s_per_row"`
	MeasuredSeconds float64 `json:"measured_s_per_row"`
	// Ratio is measured/modelled (0 until the step has executed). The
	// absolute level mixes host and modelled-device scales; drift
	// detection compares it across runs.
	Ratio float64 `json:"ratio"`
	Rows  int64   `json:"rows"`
}

// driftDist orders drift rows worst-first: distance from parity in log
// space (a step 10× over and one 10× under are equally far off). Rows
// without data sort last.
func driftDist(ratio float64) float64 {
	if ratio <= 0 {
		return -1
	}
	return math.Abs(math.Log(ratio))
}

// CostModelReport returns the model's per-step modelled-vs-measured cost
// comparison, worst offenders (largest |log ratio|) first. Nil until the
// first batch has executed (step instruments are built lazily).
func (m *Model) CostModelReport() []StepCostDrift {
	insts := m.steps.all()
	if len(insts) == 0 {
		return nil
	}
	out := make([]StepCostDrift, 0, len(insts))
	for _, si := range insts {
		d := StepCostDrift{Step: si.name, Variant: si.variant}
		d.MeasuredSeconds, d.ModelledSeconds, d.Ratio, d.Rows = si.drift()
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool { return driftDist(out[i].Ratio) > driftDist(out[j].Ratio) })
	return out
}

// traceSpans replays the batch timing block of one response into a
// sampled trace: queue wait, the batched execute, and one span per
// executor step (offsets chained inside the execute window), named after
// the steps of the executor that served the response's batch bucket.
func (m *Model) traceSpans(tr *obs.Trace, resp *response) {
	tr.Batch = resp.batch
	execOff := resp.execStart.Sub(tr.Start).Nanoseconds()
	tr.AddSpan("queue_wait", execOff-resp.queueNanos, resp.queueNanos)
	tr.AddSpan("execute", execOff, resp.execNanos)
	insts := m.steps.layout(nextPow2(resp.batch))
	off := execOff
	for i := 0; i < resp.nsteps; i++ {
		name := "step"
		if i < len(insts) {
			name = insts[i].span
		}
		tr.AddSpan(name, off, resp.stepNanos[i])
		off += resp.stepNanos[i]
	}
}

// cacheMetrics is the program cache's instrument set; the compile-latency
// histogram is observed by Program.Cost after each compile.
type cacheMetrics struct {
	compile *obs.Histogram
}

// instrument exposes the cache's counters on the registry. The hit/miss/
// eviction totals read the cache's existing atomics at scrape time, so
// the lookup path pays no double bookkeeping. Must be called before the
// first Program is created so every entry carries the compile histogram.
func (c *ProgramCache) instrument(reg *obs.Registry) {
	reg.CounterFunc(metCacheHits, c.hits.Load)
	reg.CounterFunc(metCacheMisses, c.misses.Load)
	reg.CounterFunc(metCacheEvict, c.evictions.Load)
	reg.GaugeFunc(metCacheEntries, func() float64 {
		c.mu.Lock()
		n := len(c.entries)
		c.mu.Unlock()
		return float64(n)
	})
	c.mets = &cacheMetrics{compile: reg.Histogram(metCacheCompile, obs.LatencyBuckets())}
}

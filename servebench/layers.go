package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// Metric families the serving stack exports, read back by name.
const (
	famFlush      = "ipuserve_batcher_flush_total"
	famBatchSize  = "ipuserve_batch_size"
	famCacheCompl = "ipuserve_cache_compile_seconds"
)

// kernelFamilies are the kernel families the served models execute.
var kernelFamilies = []string{"matmul", "butterfly", "bsr", "lowrank"}

// probeBatches are the batch sizes the plan layer is timed at.
var probeBatches = []int{1, 8, 64}

// counters is a snapshot of the program's exported counters.
type counters struct {
	cache        serve.CacheStats
	compileSec   float64
	kernels      map[string]obs.KernelSnapshot
	batches      int64   // flushed micro-batches, summed over served models
	batchRows    float64 // requests in those batches
	flushTimeout int64
	flushFull    int64
}

func snapshotCounters(d *deployment) counters {
	o := d.reg.Obs()
	c := counters{
		cache:      d.reg.CacheStats(),
		compileSec: o.Histogram(famCacheCompl, nil).Sum(),
		kernels:    map[string]obs.KernelSnapshot{},
	}
	for _, k := range d.reg.KernelStats().Snapshot() {
		c.kernels[k.Kernel] = k
	}
	for name := range d.models {
		lm := obs.L{Key: "model", Value: name}
		h := o.Histogram(famBatchSize, nil, lm)
		c.batches += h.Count()
		c.batchRows += h.Sum()
		c.flushTimeout += o.Counter(famFlush, lm, obs.L{Key: "reason", Value: "timeout"}).Value()
		c.flushFull += o.Counter(famFlush, lm, obs.L{Key: "reason", Value: "full"}).Value()
	}
	return c
}

// layerRun is the traced pass and everything the per-layer report reads.
type layerRun struct {
	w      workload
	in     *inputs
	ref    *references
	dep    *deployment
	sp     *spanLog
	p      *pass
	o      outcome
	before counters
	after  counters
}

// report sets every per-layer metric. pA and oA are the untraced pass.
func (l *layerRun) report(m *metricSet, pA *pass, oA outcome) error {
	p, o := l.p, l.o
	sent := len(p.recs)
	late := sortedCopy(p.late)
	m.set("loadgen.late_p99_ms", quantile(late, 0.99), "ms", len(late))
	m.set("loadgen.sent", float64(sent), "count", 1)
	m.set("loadgen.fail_share", ratio(float64(o.failed), float64(sent)), "share", sent)
	m.set("loadgen.retry_share", ratio(float64(o.retried), float64(sent)), "share", sent)
	m.set("loadgen.mismatches", float64(o.mismatches), "count", 1)
	m.set("loadgen.p50_ms", latencyQuantile(oA.latency, 0.50), "ms", len(oA.latency))
	m.set("loadgen.mean_ms", mean(okLatencies(oA.latency)), "ms", oA.ok)
	m.set("loadgen.p95_ms", latencyQuantile(oA.latency, 0.95), "ms", len(oA.latency))
	m.set("loadgen.p99_ms", latencyQuantile(oA.latency, 0.99), "ms", len(oA.latency))

	enc, dec := durations(l.in.encode, us), durations(o.decode, us)
	m.set("codec.request_encode_us", median(enc), "us", len(enc))
	m.set("codec.response_decode_us", median(dec), "us", len(dec))

	tr := l.traceTotals()
	serveHTTP := make([]float64, sent)
	for i, r := range p.recs {
		serveHTTP[i] = us(r.end - r.sent)
	}
	meanServe := mean(serveHTTP)
	m.set("http.decode_us", median(tr.decode), "us", len(tr.decode))
	m.set("http.write_us", median(tr.write), "us", len(tr.write))
	m.set("http.self_share", 1-ratio(mean(tr.predict), meanServe), "share", len(tr.predict))

	queue := sortedCopy(tr.queue)
	m.set("batcher.queue_wait_ms.p50", quantile(queue, 0.50), "ms", len(queue))
	m.set("batcher.queue_wait_ms.p99", quantile(queue, 0.99), "ms", len(queue))
	b, a := l.before, l.after
	batches := a.batches - b.batches
	m.set("batcher.batch_mean", ratio(a.batchRows-b.batchRows, float64(batches)), "rows", int(batches))
	timeouts := a.flushTimeout - b.flushTimeout
	m.set("batcher.timeout_flush_share", ratio(float64(timeouts), float64(timeouts+a.flushFull-b.flushFull)), "share", int(batches))

	hits, misses := a.cache.Hits-b.cache.Hits, a.cache.Misses-b.cache.Misses
	m.set("cache.miss_share", ratio(float64(misses), float64(hits+misses)), "share", int(hits+misses))
	m.set("cache.compile_ms_total", 1e3*(a.compileSec-b.compileSec), "ms", int(misses))
	warm := l.sp.millis("ModelledCost")
	var warmTotal float64
	for _, d := range warm {
		warmTotal += d
	}
	m.set("cache.warm_ms_total", warmTotal, "ms", len(warm))

	if err := l.programProbes(m); err != nil {
		return err
	}

	var registers []float64
	registers = append(registers, l.sp.millis("Register")...)
	for _, d := range p.swaps {
		registers = append(registers, ms(d))
	}
	m.set("registry.register_ms", median(registers), "ms", len(registers))
	m.set("registry.setup_wall_s", l.dep.setup.Seconds(), "s", 1)
	m.set("registry.stopped_per_swap", ratio(float64(o.stopped), float64(len(p.swaps))), "count", len(p.swaps))

	if err := l.planProbes(m); err != nil {
		return err
	}
	l.shardTimeline(m)

	for _, k := range kernelFamilies {
		kb, ka := b.kernels[k], a.kernels[k]
		flops, bytes, nanos := ka.Flops-kb.Flops, ka.Bytes-kb.Bytes, ka.Nanos-kb.Nanos
		m.set("kernel."+k+".gflops", ratio(float64(flops), float64(nanos)), "GFLOP/s", int(ka.Calls-kb.Calls))
		m.set("kernel."+k+".flops_per_req", ratio(float64(flops), float64(o.ok)), "flop", o.ok)
		m.set("kernel."+k+".bytes_per_req", ratio(float64(bytes), float64(o.ok)), "B-computed", o.ok)
	}

	m.set("process.cpu_ms_per_req", pA.cpuPerReqMs(oA.ok), "ms", oA.ok)
	m.set("process.calibration_ms", pA.calUnitMs(), "ms", pA.calUnits)
	m.set("process.allocs_per_req", ratio(float64(pA.proc.allocs), float64(oA.ok)), "count", oA.ok)
	m.set("process.gc_cpu_share", ratio(pA.proc.gcCPU, pA.proc.cpuAll), "share", 1)

	m.set("trace.unattributed_share", 1-ratio(mean(tr.covered), meanServe), "share", len(tr.covered))
	p50A, p50B := latencyQuantile(oA.latency, 0.5), latencyQuantile(o.latency, 0.5)
	m.set("trace.overhead_share", ratio(p50B-p50A, p50A), "share", len(o.latency))
	return nil
}

func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// traceSpans are the program's per-request spans of the traced pass.
type traceSpans struct {
	decode, write []float64 // http_decode, http_write (µs)
	queue         []float64 // queue_wait (ms)
	predict       []float64 // µs covered by queue_wait ∪ execute ∪ cost_lookup
	covered       []float64 // µs covered by any top-level span
}

// traceTotals reads the tracer's ring and keeps the HTTP requests of the
// traced pass (warm-up Predicts carry no http_decode span).
func (l *layerRun) traceTotals() traceSpans {
	var t traceSpans
	for _, rec := range l.dep.reg.Tracer().Snapshot() {
		if rec.Start.Before(l.p.start) {
			continue
		}
		var top, pred []obs.Span
		isHTTP := false
		for _, s := range rec.Spans {
			switch s.Name {
			case "http_decode":
				isHTTP = true
				t.decode = append(t.decode, float64(s.DurNanos)/1e3)
			case "http_write":
				t.write = append(t.write, float64(s.DurNanos)/1e3)
			case "queue_wait":
				t.queue = append(t.queue, float64(s.DurNanos)/1e6)
				pred = append(pred, s)
			case "execute", "cost_lookup":
				pred = append(pred, s)
			}
			if !strings.HasPrefix(s.Name, "step") {
				top = append(top, s)
			}
		}
		if !isHTTP {
			continue
		}
		t.predict = append(t.predict, unionNanos(pred)/1e3)
		t.covered = append(t.covered, unionNanos(top)/1e3)
	}
	return t
}

// unionNanos is the length of the union of the spans' intervals.
func unionNanos(spans []obs.Span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNanos < spans[j].StartNanos })
	var total, end int64
	first := true
	for _, s := range spans {
		lo, hi := s.StartNanos, s.StartNanos+s.DurNanos
		if first || lo > end {
			total += hi - lo
			end, first = hi, false
			continue
		}
		if hi > end {
			total += hi - end
			end = hi
		}
	}
	return float64(total)
}

// programProbes reads each model's compiled IPU programs (compile time
// summed over the batch buckets, device bytes at the largest) and the
// post-hoc compression verdict. Models the workload does not serve are
// registered on a separate idle registry.
func (l *layerRun) programProbes(m *metricSet) error {
	var probe *deployment
	sp := &spanLog{}
	reports := l.dep.compressReports
	compressSpan := l.sp
	for _, name := range allModels {
		if l.w.serves(name) {
			continue
		}
		if probe == nil {
			probe = &deployment{reg: serve.NewRegistry(workload{shards: 1}.options())}
			defer probe.close()
		}
		if _, err := probe.register(name, sp); err != nil {
			return err
		}
		if name == compressed {
			reports, compressSpan = probe.compressReports, sp
		}
	}
	for _, name := range allModels {
		reg := l.dep.reg
		if !l.w.serves(name) {
			reg = probe.reg
		}
		model, ok := reg.Get(name)
		if !ok {
			return fmt.Errorf("probe: model %s is not registered", name)
		}
		var compile float64
		var deviceBytes int
		for b := 1; b <= maxBatch; b *= 2 {
			cost, err := model.ModelledCost(b)
			if err != nil {
				return fmt.Errorf("probe: pricing %s at batch %d: %w", name, b, err)
			}
			compile += cost.CompileSeconds
			deviceBytes = cost.DeviceBytes
		}
		m.set("ipu.compile_ms."+name, 1e3*compile, "ms", 1)
		m.set("ipu.device_mb."+name, float64(deviceBytes)/1e6, "MB", 1)
	}

	var before, after, maxErr float64
	for _, r := range reports {
		before += float64(r.ParamsBefore)
		after += float64(r.ParamsAfter)
		maxErr = max(maxErr, r.RelError)
	}
	secs := compressSpan.millis("RegisterCompressed")
	m.set("factorize.compress_s", median(secs)/1e3, "s", len(secs))
	m.set("factorize.rel_error", maxErr, "ratio", len(reports))
	m.set("factorize.params_ratio", ratio(after, before), "ratio", len(reports))
	return nil
}

// planProbes times the host plan layer directly: nn.CompilePlan and
// Plan.Execute at each probe batch for every model, and a 2-way
// shard.Compile + ShardedPlan.Execute at the largest batch for the
// structured models.
func (l *layerRun) planProbes(m *metricSet) error {
	x := l.in.matrix()
	for _, name := range allModels {
		net, err := l.probeNet(name)
		if err != nil {
			return err
		}
		var compiles []float64
		for i := 0; i < 3; i++ {
			t := time.Now()
			_, err := net.CompilePlan(maxBatch)
			compiles = append(compiles, ms(time.Since(t)))
			if err != nil {
				return fmt.Errorf("probe: compiling %s: %w", name, err)
			}
		}
		m.set("nn.plan_compile_ms."+name, median(compiles), "ms", len(compiles))
		for _, b := range probeBatches {
			pl, err := net.CompilePlan(b)
			if err != nil {
				return fmt.Errorf("probe: compiling %s at batch %d: %w", name, b, err)
			}
			perRow, n, err := timeExecute(pl.Execute, rows(x, b))
			if err != nil {
				return fmt.Errorf("probe: executing %s at batch %d: %w", name, b, err)
			}
			m.set(fmt.Sprintf("nn.execute_us_per_row.%s.b%d", name, b), perRow, "us", n)
		}
	}
	for _, name := range []string{"butterfly", "pixelfly"} {
		net, err := l.probeNet(name)
		if err != nil {
			return err
		}
		pl, err := net.CompilePlan(maxBatch)
		if err != nil {
			return fmt.Errorf("probe: compiling %s: %w", name, err)
		}
		t := time.Now()
		sp, err := shard.Compile(pl, shard.DefaultTopology(2), 2)
		compile := time.Since(t)
		if err != nil {
			return fmt.Errorf("probe: sharding %s: %w", name, err)
		}
		m.set("shard.compile_ms."+name, ms(compile), "ms", 1)
		perRow, n, err := timeExecute(sp.Execute, rows(x, maxBatch))
		sp.Close()
		if err != nil {
			return fmt.Errorf("probe: executing sharded %s: %w", name, err)
		}
		m.set("shard.execute_us_per_row."+name, perRow, "us", n)
	}
	return nil
}

// probeNet returns the reference network of a model, building the ones
// the workload's references do not hold.
func (l *layerRun) probeNet(name string) (*nn.Sequential, error) {
	if net, ok := l.ref.nets[refKey{name, weightSeed}]; ok {
		return net, nil
	}
	if name != compressed {
		net := buildNet(name, weightSeed)
		l.ref.nets[refKey{name, weightSeed}] = net
		return net, nil
	}
	net, _, err := buildNet("dense", weightSeed).Compress(compressOpts)
	if err != nil {
		return nil, fmt.Errorf("probe: compressing dense: %w", err)
	}
	l.ref.nets[refKey{name, weightSeed}] = net
	return net, nil
}

// rows returns the first b rows of x as a matrix sharing its storage.
func rows(x *tensor.Matrix, b int) *tensor.Matrix {
	return &tensor.Matrix{Rows: b, Cols: x.Cols, Data: x.Data[:b*x.Cols]}
}

// timeExecute runs exec on x at least 5 times and for at least 20 ms and
// returns the median µs per row and the number of timed runs.
func timeExecute(exec func(*tensor.Matrix) (*tensor.Matrix, error), x *tensor.Matrix) (float64, int, error) {
	var perRow []float64
	start := time.Now()
	for len(perRow) < 5 || time.Since(start) < 20*time.Millisecond {
		t := time.Now()
		if _, err := exec(x); err != nil {
			return 0, 0, err
		}
		perRow = append(perRow, us(time.Since(t))/float64(x.Rows))
	}
	return median(perRow), len(perRow), nil
}

// shardTimeline reads the flight recorder of every sharded served model:
// mean pipeline bubble and exchange shares, and the widest wavefront.
func (l *layerRun) shardTimeline(m *metricSet) {
	var bubble, exchange []float64
	micro := 0
	for _, name := range l.w.models {
		model, ok := l.dep.reg.Get(name)
		if !ok {
			continue
		}
		s, ok := model.TimelineSummary()
		if !ok || s.Shards < 2 {
			continue
		}
		bubble = append(bubble, s.BubbleFraction)
		exchange = append(exchange, s.ExchangeShare)
		micro = max(micro, s.MicroBatches)
	}
	m.set("shard.bubble_share", mean(bubble), "share", len(bubble))
	m.set("shard.exchange_share", mean(exchange), "share", len(exchange))
	m.set("shard.micro_batches", float64(micro), "count", len(bubble))
}

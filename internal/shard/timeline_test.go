package shard

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/tensor"
)

// executeSampled runs one batch through sp with a sample-every-batch
// recorder installed and returns the recorded timeline.
func executeSampled(t *testing.T, sp *ShardedPlan, rec *timeline.Recorder) timeline.BatchRecord {
	t.Helper()
	x := tensor.New(testMaxBatch, testN)
	x.FillRandom(rand.New(rand.NewSource(5)), 1)
	if _, err := sp.Execute(x); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if len(snap) == 0 {
		t.Fatal("recorder at sampleEvery=1 captured no batch")
	}
	return snap[len(snap)-1]
}

// TestTimelineReconcilesWithMeasuredClocks asserts the flight recorder
// agrees with the executor's own accounting: per-IPU compute event sums
// equal LastComputeNanos exactly (both copy the same clock reads), and
// no event extends past the measured batch wall.
func TestTimelineReconcilesWithMeasuredClocks(t *testing.T) {
	_, pl := buildPlan(t, nn.Butterfly, 31)
	for _, strat := range []Strategy{TensorParallel, Pipeline} {
		sp, err := CompileMicro(pl, DefaultTopology(4), 2, strat, 1)
		if err != nil {
			t.Fatalf("CompileMicro(%v): %v", strat, err)
		}
		rec := timeline.NewRecorder(1, 2)
		sp.SetTimeline(rec)
		b := executeSampled(t, sp, rec)

		if b.Tracks != 2 || b.Steps != len(sp.Steps()) {
			t.Fatalf("%v: batch is %d tracks × %d steps, want 2 × %d",
				strat, b.Tracks, b.Steps, len(sp.Steps()))
		}
		computeByIPU := make([]int64, b.Tracks)
		for _, ev := range b.Events {
			if end := ev.StartNanos + ev.DurNanos; end > sp.LastWallNanos() {
				t.Fatalf("%v: event %+v ends %dns past the %dns batch wall",
					strat, ev, end-sp.LastWallNanos(), sp.LastWallNanos())
			}
			if ev.Phase == timeline.Compute {
				computeByIPU[ev.IPU] += ev.DurNanos
			}
		}
		for k, want := range sp.LastComputeNanos() {
			if computeByIPU[k] != want {
				t.Errorf("%v: ipu%d compute events sum to %dns, LastComputeNanos says %dns",
					strat, k, computeByIPU[k], want)
			}
		}
		sp.Close()
	}
}

// TestTimelineBubblesOnlyUnderPipeline asserts the acceptance contract
// for the bubble phase: tensor-parallel lowering gives every shard a
// kernel on every micro-step, so its timeline has no bubbles; pipeline
// partitioning idles every shard outside its own stage, so fill/drain
// bubbles must appear and dominate a two-shard timeline's idle time.
func TestTimelineBubblesOnlyUnderPipeline(t *testing.T) {
	_, pl := buildPlan(t, nn.Baseline, 13)

	tp, err := CompileMicro(pl, DefaultTopology(4), 2, TensorParallel, 1)
	if err != nil {
		t.Fatal(err)
	}
	tpRec := timeline.NewRecorder(1, 2)
	tp.SetTimeline(tpRec)
	b := executeSampled(t, tp, tpRec)
	for _, ev := range b.Events {
		if ev.Phase == timeline.Bubble {
			t.Fatalf("tensor-parallel timeline recorded a bubble: %+v", ev)
		}
	}
	if f := tpRec.BubbleFraction(); f != 0 {
		t.Fatalf("tensor-parallel bubble fraction = %g, want 0", f)
	}
	tp.Close()

	pp, err := CompileMicro(pl, DefaultTopology(4), 2, Pipeline, 1)
	if err != nil {
		t.Fatal(err)
	}
	ppRec := timeline.NewRecorder(1, 2)
	pp.SetTimeline(ppRec)
	b = executeSampled(t, pp, ppRec)
	bubbles := 0
	for _, ev := range b.Events {
		if ev.Phase == timeline.Bubble {
			bubbles++
		}
	}
	// Every step has exactly one owner of two shards, so the other shard
	// bubbles: one bubble per micro-step.
	if want := len(pp.Steps()); bubbles != want {
		t.Fatalf("pipeline timeline recorded %d bubbles, want %d (one per micro-step)", bubbles, want)
	}
	if f := ppRec.BubbleFraction(); f <= 0 {
		t.Fatalf("pipeline bubble fraction = %g, want > 0", f)
	}
	pp.Close()
}

// TestWavefrontTimeline pins the wavefront recorder semantics: a
// sampled batch carries the micro dimension, every (step, micro-batch)
// compute span lands on the owning stage's track and sums to
// LastComputeNanos, and the only bubbles are the per-stage fill (first
// micro-batch) and residual drain — a wavefront at M=4 must idle far
// less than the barrier loop's one-whole-step-per-foreign-stage.
func TestWavefrontTimeline(t *testing.T) {
	_, pl := buildPlan(t, nn.Butterfly, 31)
	sp, err := CompileMicro(pl, DefaultTopology(2), 2, Pipeline, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	rec := timeline.NewRecorder(1, 2)
	sp.SetTimeline(rec)
	b := executeSampled(t, sp, rec)

	if b.Micro != 4 {
		t.Fatalf("batch recorded micro=%d, want 4", b.Micro)
	}
	if b.Tracks != 2 {
		t.Fatalf("batch recorded %d tracks, want 2", b.Tracks)
	}
	computeByIPU := make([]int64, b.Tracks)
	computeCells := map[[2]int32]bool{}
	bubbles := 0
	for _, ev := range b.Events {
		if end := ev.StartNanos + ev.DurNanos; end > sp.LastWallNanos() {
			t.Fatalf("event %+v ends past the %dns batch wall", ev, sp.LastWallNanos())
		}
		switch ev.Phase {
		case timeline.Compute:
			computeByIPU[ev.IPU] += ev.DurNanos
			computeCells[[2]int32{ev.Step, ev.MB}] = true
		case timeline.Bubble:
			bubbles++
		}
	}
	for k, want := range sp.LastComputeNanos() {
		if computeByIPU[k] != want {
			t.Errorf("ipu%d compute events sum to %dns, LastComputeNanos says %dns",
				k, computeByIPU[k], want)
		}
	}
	// Every step must run every micro-batch exactly once.
	if want := len(sp.Steps()) * 4; len(computeCells) != want {
		t.Errorf("recorded %d (step, mb) compute cells, want %d", len(computeCells), want)
	}
	// At most one fill per waiting stage and one drain per non-final
	// stage: with 2 stages, ≤ 2 bubbles (vs one per foreign micro-step
	// under the barrier loop).
	if bubbles > 2 {
		t.Errorf("wavefront recorded %d bubble events, want ≤ 2 (fill + drain)", bubbles)
	}
}

// TestShardedTimelineAllocFree extends the zero-alloc steady-state
// contract to a worst-case recorder: sampling every batch, with kernel
// accounting and pprof labels installed, Execute still allocates nothing
// after warm-up — on one shard (how single-IPU programs are served) and
// on two.
func TestShardedTimelineAllocFree(t *testing.T) {
	_, pl := buildPlan(t, nn.Butterfly, 17)
	for _, shards := range []int{1, 2} {
		sp, err := CompileMicro(pl, DefaultTopology(4), shards, TensorParallel, 1)
		if err != nil {
			t.Fatal(err)
		}
		rec := timeline.NewRecorder(1, 2)
		sp.SetTimeline(rec)
		sp.SetKernelStats(obs.NewKernelStats())
		sp.SetPprofLabels(t.Context())
		x := tensor.New(testMaxBatch, testN)
		x.FillRandom(rand.New(rand.NewSource(18)), 1)
		// Warm: fill the ring and the batch pool to steady state.
		for i := 0; i < 4; i++ {
			if _, err := sp.Execute(x); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(20, func() { sp.Execute(x) })
		if avg != 0 {
			t.Errorf("%d shards: Execute with recorder+stats+labels allocates %.1f objects per run, want 0", shards, avg)
		}
		if tot := rec.Totals(); tot.Batches < 20 {
			t.Fatalf("%d shards: recorder only saw %d batches — sampling did not run", shards, tot.Batches)
		}
		sp.Close()
	}
}

// TestPlanTimeline covers the single-IPU executor: a one-shard plan
// records one compute span per step on one track, named as the plan's own
// steps, with no exchange, barrier or bubble events (there is nothing to
// wait on), and the spans sum to the executor's measured compute.
func TestPlanTimeline(t *testing.T) {
	_, pl := buildPlan(t, nn.Baseline, 23)
	sp, err := CompileMicro(pl, DefaultTopology(1), 1, Pipeline, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	rec := timeline.NewRecorder(1, 2)
	sp.SetTimeline(rec)
	x := tensor.New(testMaxBatch, testN)
	x.FillRandom(rand.New(rand.NewSource(24)), 1)
	if _, err := sp.Execute(x); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("got %d batches, want 1", len(snap))
	}
	b := snap[0]
	if b.Tracks != 1 || b.Steps != pl.NumSteps() || len(b.Events) != pl.NumSteps() {
		t.Fatalf("batch is %d tracks × %d steps with %d events, want 1 × %d with %d",
			b.Tracks, b.Steps, len(b.Events), pl.NumSteps(), pl.NumSteps())
	}
	if got, want := strings.Join(sp.Steps(), ","), strings.Join(pl.Steps(), ","); got != want {
		t.Fatalf("one-shard steps %q, want the plan's %q", got, want)
	}
	var end, total int64
	for i, ev := range b.Events {
		if ev.Phase != timeline.Compute || ev.IPU != 0 || int(ev.Step) != i {
			t.Fatalf("event %d: %+v, want compute of step %d on ipu0", i, ev, i)
		}
		if ev.StartNanos < end {
			t.Fatalf("event %d starts at %dns, before the previous span ends at %dns", i, ev.StartNanos, end)
		}
		end = ev.StartNanos + ev.DurNanos
		total += ev.DurNanos
	}
	if want := sp.LastComputeNanos()[0]; total != want {
		t.Fatalf("compute events sum to %dns, LastComputeNanos says %dns", total, want)
	}
	if end > b.WallNanos {
		t.Fatalf("last span ends at %dns, past the %dns batch wall", end, b.WallNanos)
	}
	meta := sp.TimelineMeta("m")
	if meta.Strategy != "" || meta.Shards != 1 || meta.MicroBatches != 0 || meta.ExchangeSecPerRow != nil {
		t.Fatalf("one-shard meta = %+v, want 1 shard, no strategy, micro or exchange", meta)
	}
}

package nn_test

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// compileServed compiles a butterfly SHL the way single-IPU programs are
// served: an nn.Plan lowered onto a one-shard ShardedPlan, the executor
// that carries the kernel accounting.
func compileServed(t *testing.T, seed int64) (*nn.Plan, *shard.ShardedPlan) {
	t.Helper()
	const n, classes, maxBatch = 64, 10, 8
	net := nn.BuildSHL(nn.Butterfly, n, classes, rand.New(rand.NewSource(seed)))
	plan, err := net.CompilePlan(maxBatch)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	sp, err := shard.CompileMicro(plan, shard.DefaultTopology(1), 1, shard.Pipeline, 1)
	if err != nil {
		t.Fatalf("CompileMicro: %v", err)
	}
	t.Cleanup(sp.Close)
	return plan, sp
}

// TestPlanKernelAccounting executes a butterfly program with the sink
// installed and checks the recorded totals against the plan's own
// per-row figures: flops and bytes must match rows × per-row exactly,
// and every executed step must land in its attributed family.
func TestPlanKernelAccounting(t *testing.T) {
	plan, sp := compileServed(t, 9)
	ks := obs.NewKernelStats()
	sp.SetKernelStats(ks)

	rows := int64(0)
	rng := rand.New(rand.NewSource(10))
	for _, batch := range []int{1, 3, plan.MaxBatch()} {
		x := tensor.New(batch, plan.InputWidth())
		x.FillRandom(rng, 1)
		if _, err := sp.Execute(x); err != nil {
			t.Fatalf("Execute: %v", err)
		}
		rows += int64(batch)
	}

	wantFlops := map[string]int64{}
	wantBytes := map[string]int64{}
	wantCalls := map[string]int64{}
	for i := 0; i < plan.NumSteps(); i++ {
		k := plan.StepKernel(i).String()
		wantFlops[k] += rows * plan.StepFlopsPerRow(i)
		wantBytes[k] += rows * plan.StepArenaBytesPerRow(i)
		wantCalls[k] += 3 // one record per step per Execute
	}

	snaps := ks.Snapshot()
	if len(snaps) != len(wantFlops) {
		t.Fatalf("sink families = %d, want %d (%v)", len(snaps), len(wantFlops), snaps)
	}
	for _, s := range snaps {
		if s.Flops != wantFlops[s.Kernel] {
			t.Errorf("%s flops = %d, want %d", s.Kernel, s.Flops, wantFlops[s.Kernel])
		}
		if s.Bytes != wantBytes[s.Kernel] {
			t.Errorf("%s bytes = %d, want %d", s.Kernel, s.Bytes, wantBytes[s.Kernel])
		}
		if s.Calls != wantCalls[s.Kernel] {
			t.Errorf("%s calls = %d, want %d", s.Kernel, s.Calls, wantCalls[s.Kernel])
		}
		if s.Nanos <= 0 {
			t.Errorf("%s nanos = %d, want > 0", s.Kernel, s.Nanos)
		}
	}
}

// TestPlanKernelStatsAllocFree pins the accounting overhead contract:
// with the sink installed, steady-state Execute still performs zero heap
// allocations (striped atomic adds only).
func TestPlanKernelStatsAllocFree(t *testing.T) {
	plan, sp := compileServed(t, 17)
	sp.SetKernelStats(obs.NewKernelStats())
	x := tensor.New(plan.MaxBatch(), plan.InputWidth())
	x.FillRandom(rand.New(rand.NewSource(18)), 1)
	if _, err := sp.Execute(x); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if avg := testing.AllocsPerRun(20, func() { sp.Execute(x) }); avg != 0 {
		t.Errorf("Execute with kernel accounting allocates %.1f objects per run, want 0", avg)
	}
}

package nn

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestPlanKernelClassification pins the step → kernel-family attribution
// for every Table 4 method: the structured first layer reports its own
// family, the dense classifier head reports matmul.
func TestPlanKernelClassification(t *testing.T) {
	want := map[Method]obs.Kernel{
		Baseline:  obs.KernelMatMul,
		Butterfly: obs.KernelButterfly,
		Fastfood:  obs.KernelFWHT,
		Circulant: obs.KernelFFT,
		LowRank:   obs.KernelLowRank,
		Pixelfly:  obs.KernelBSR,
	}
	const n, classes, maxBatch = 64, 10, 8
	for _, method := range AllMethods {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			net := BuildSHL(method, n, classes, rand.New(rand.NewSource(5)))
			plan, err := net.CompilePlan(maxBatch)
			if err != nil {
				t.Fatalf("CompilePlan: %v", err)
			}
			if got := plan.StepKernel(0); got != want[method] {
				t.Errorf("first step kernel = %s, want %s", got, want[method])
			}
			last := plan.NumSteps() - 1
			if got := plan.StepKernel(last); got != obs.KernelMatMul {
				t.Errorf("classifier head kernel = %s, want matmul", got)
			}
			for i := 0; i < plan.NumSteps(); i++ {
				if plan.StepFlopsPerRow(i) <= 0 {
					t.Errorf("step %d (%s): flops/row = %d, want > 0",
						i, plan.Steps()[i], plan.StepFlopsPerRow(i))
				}
				if plan.StepArenaBytesPerRow(i) <= 0 {
					t.Errorf("step %d (%s): arena bytes/row = %d, want > 0",
						i, plan.Steps()[i], plan.StepArenaBytesPerRow(i))
				}
			}
		})
	}
}

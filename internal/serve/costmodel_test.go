package serve

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestCostModelEndpoint drives traffic through a model and checks the
// /debug/costmodel contract: every plan step appears with its modelled
// IPU cost next to a measured per-row wall-clock, worst drift first, and
// the drift ratios surface on /metrics alongside the per-kernel gauges.
func TestCostModelEndpoint(t *testing.T) {
	spec := ModelSpec{Name: "bf", Method: nn.Butterfly, N: 256, Classes: 10, Seed: 1}
	reg := obsTestRegistry(t, Options{}, spec)
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	features := obsTestFeatures(spec.N)
	for i := 0; i < 10; i++ {
		if _, err := reg.Predict(context.Background(), "bf", features); err != nil {
			t.Fatal(err)
		}
	}

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	var cm CostModelResponse
	if err := json.Unmarshal([]byte(get("/debug/costmodel")), &cm); err != nil {
		t.Fatal(err)
	}
	if len(cm.Models) != 1 || cm.Models[0].Model != "bf" {
		t.Fatalf("costmodel models = %+v, want one entry for bf", cm.Models)
	}
	steps := cm.Models[0].Steps
	if len(steps) == 0 {
		t.Fatal("costmodel steps empty after traffic")
	}
	for i, st := range steps {
		if st.Step == "" {
			t.Errorf("step %d has no name", i)
		}
		if st.ModelledSeconds <= 0 {
			t.Errorf("step %q modelled = %v, want > 0", st.Step, st.ModelledSeconds)
		}
		if st.MeasuredSeconds <= 0 || st.Ratio <= 0 || st.Rows <= 0 {
			t.Errorf("step %q has no measurement: %+v", st.Step, st)
		}
		if i > 0 && driftDist(st.Ratio) > driftDist(steps[i-1].Ratio) {
			t.Errorf("steps not worst-first: %q (dist %.3f) after %q (dist %.3f)",
				st.Step, driftDist(st.Ratio), steps[i-1].Step, driftDist(steps[i-1].Ratio))
		}
	}

	metrics := get("/metrics")
	for _, series := range []string{
		`ipuserve_cost_model_drift_ratio{model="bf",step="`,
		`ipuserve_kernel_gflops{kernel="butterfly"}`,
		`ipuserve_kernel_gflops{kernel="matmul"}`,
		`ipuserve_kernel_bytes_per_sec{kernel="butterfly"}`,
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	// The registry-wide kernel sink saw the traffic: both families of the
	// butterfly model (sweeps + dense head) have non-zero totals.
	snaps := reg.KernelStats().Snapshot()
	if len(snaps) < 2 {
		t.Fatalf("kernel sink families = %v, want butterfly and matmul", snaps)
	}
	for _, s := range snaps {
		if s.Flops <= 0 || s.Nanos <= 0 || s.GFlopsPerSec <= 0 {
			t.Errorf("kernel %s snapshot not populated: %+v", s.Kernel, s)
		}
	}
}

// TestTracesConcurrentScrape hammers /debug/traces while predict traffic
// records new spans: under -race this gates the ring against torn reads,
// and every returned trace must be internally consistent — named spans,
// non-negative offsets and durations, the right model — with a stable
// sampled_rate across scrapes.
func TestTracesConcurrentScrape(t *testing.T) {
	spec := ModelSpec{Name: "bf", Method: nn.Butterfly, N: 256, Classes: 10, Seed: 1}
	reg := obsTestRegistry(t, Options{TraceSampleEvery: 2, TraceKeep: 16}, spec)
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	features := obsTestFeatures(spec.N)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := reg.Predict(context.Background(), "bf", features); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(srv.URL + "/debug/traces")
				if err != nil {
					t.Error(err)
					return
				}
				var tr TracesResponse
				err = json.NewDecoder(resp.Body).Decode(&tr)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if tr.SampleEvery != 2 || tr.SampledRate != 0.5 {
					t.Errorf("sampled_rate = %v (every %d), want 0.5 (every 2)",
						tr.SampledRate, tr.SampleEvery)
					return
				}
				for _, rec := range tr.Traces {
					if rec.Model != "bf" {
						t.Errorf("trace %d: model %q, want bf", rec.ID, rec.Model)
					}
					if rec.TotalNanos <= 0 {
						t.Errorf("trace %d: total %dns, want > 0", rec.ID, rec.TotalNanos)
					}
					if len(rec.Spans) == 0 {
						t.Errorf("trace %d: no spans", rec.ID)
					}
					for _, sp := range rec.Spans {
						if sp.Name == "" || sp.StartNanos < 0 || sp.DurNanos < 0 {
							t.Errorf("trace %d: torn span %+v", rec.ID, sp)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestStepInstrumentsPerBucket pins step instruments to the executor that
// actually ran: the planner picks the partitioning per batch bucket, and
// a 2-shard pixelfly at N=1024 pipelines small buckets but splits bucket
// 64 tensor-parallel. After one 1-row and one 64-row batch, the cost-model
// report must list both step lists, each with only its own rows, and the
// kernel variants must include both BSR kernels.
func TestStepInstrumentsPerBucket(t *testing.T) {
	reg := NewRegistry(Options{
		Batcher: BatcherConfig{MaxBatch: 64, MaxDelay: time.Millisecond, Workers: 1},
		NumIPUs: 2,
		Shards:  2,
	})
	t.Cleanup(reg.Close)
	m, err := reg.Register(ModelSpec{Name: "pf", Method: nn.Pixelfly, N: 1024, Classes: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	strategy := func(rows int) string {
		cost, err := m.ModelledCost(rows)
		if err != nil {
			t.Fatal(err)
		}
		return cost.Strategy
	}
	if small, large := strategy(1), strategy(64); small != "pipeline" || large != "tensor-parallel" {
		t.Fatalf("planner picked %s for bucket 1 and %s for bucket 64; this test needs pipeline and tensor-parallel", small, large)
	}
	for _, rows := range []int{1, 64} {
		x := tensor.New(rows, 1024)
		x.FillRandom(rand.New(rand.NewSource(int64(rows))), 1)
		m.runBatch(x, new(execInfo))
	}

	rowsByStep := map[string]int64{}
	for _, d := range m.CostModelReport() {
		rowsByStep[d.Step] = d.Rows
		if d.ModelledSeconds <= 0 || d.MeasuredSeconds <= 0 || d.Ratio <= 0 {
			t.Errorf("step %q has no drift measurement: %+v", d.Step, d)
		}
	}
	for step, want := range map[string]int64{
		"pixelfly(1024)+relu@ipu0": 1,
		"dense(1024x10)@ipu1":      1,
		"pixelfly(1024)+relu/tp":   64,
		"dense(1024x10)/tp":        64,
	} {
		if got, ok := rowsByStep[step]; !ok || got != want {
			t.Errorf("step %q: rows %d (listed %v), want %d; report rows %v", step, got, ok, want, rowsByStep)
		}
	}
	if got := m.KernelVariants()["bsr"]; !slices.Equal(got, []string{"blocktiled", "reference"}) {
		t.Errorf("bsr variants = %v, want [blocktiled reference]", got)
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// benchFeatures builds one deterministic feature vector of width n.
func benchFeatures(n int) []float32 {
	v := tensor.New(1, n)
	v.FillRandom(rand.New(rand.NewSource(9)), 1)
	return v.Data
}

// BenchmarkPredictSteadyState measures the full serving path — registry,
// micro-batcher, compiled-plan execution — at steady state, allocs/op
// included. This is the acceptance benchmark of the allocation-free
// execution-plan refactor; compare against BenchmarkPredictLegacyInfer,
// which drives the same batcher over the pre-refactor per-layer
// allocating inference path.
func BenchmarkPredictSteadyState(b *testing.B) {
	reg := NewRegistry(Options{Batcher: BatcherConfig{
		MaxBatch: 32, MaxDelay: 100 * time.Microsecond,
	}})
	defer reg.Close()
	m, err := reg.Register(ModelSpec{Name: "bf", Method: nn.Butterfly, N: 1024, Classes: 10, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	features := benchFeatures(1024)
	ctx := context.Background()
	if _, err := m.Predict(ctx, features); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := m.Predict(ctx, features); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPredictLegacyInfer is the pre-refactor inference path kept as a
// living comparator: the same micro-batcher executing batches through
// Sequential.Infer, which allocates fresh matrices at every butterfly
// stage of every batch.
func BenchmarkPredictLegacyInfer(b *testing.B) {
	net := nn.BuildSHL(nn.Butterfly, 1024, 10, rand.New(rand.NewSource(42)))
	bt := NewBatcher(1024, BatcherConfig{
		MaxBatch: 32, MaxDelay: 100 * time.Microsecond,
	}, net.Infer)
	defer bt.Stop()
	features := benchFeatures(1024)
	ctx := context.Background()
	if _, _, err := bt.Do(ctx, features); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := bt.Do(ctx, features); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkHTTPPredict drives Server.ServeHTTP with a pre-encoded
// 1024-float butterfly body: body read and decode, the serving path of
// BenchmarkPredictSteadyState, and the response write, allocs/op
// included. Request and response writer are reused, so what allocates is
// the handler's own work.
func BenchmarkHTTPPredict(b *testing.B) {
	reg := NewRegistry(Options{Batcher: BatcherConfig{
		MaxBatch: 32, MaxDelay: 100 * time.Microsecond,
	}})
	defer reg.Close()
	if _, err := reg.Register(ModelSpec{Name: "bf", Method: nn.Butterfly, N: 1024, Classes: 10, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(reg)
	body, err := json.Marshal(PredictRequest{Model: "bf", Features: benchFeatures(1024)})
	if err != nil {
		b.Fatal(err)
	}
	do := func(rd *bodyReader, req *http.Request, w *discardWriter) {
		rd.Reset(body)
		w.code = 0
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Errorf("status %d", w.code)
		}
	}
	newClient := func() (*bodyReader, *http.Request, *discardWriter) {
		rd := new(bodyReader)
		req := httptest.NewRequest(http.MethodPost, "/predict", nil)
		req.Body = rd
		return rd, req, &discardWriter{h: http.Header{}}
	}
	do(newClient())
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rd, req, w := newClient()
		for pb.Next() {
			do(rd, req, w)
		}
	})
}

// bodyReader is a resettable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps only the status code.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

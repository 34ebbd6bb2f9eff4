package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func testServer(t *testing.T) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry(Options{
		Batcher: BatcherConfig{MaxBatch: 8, MaxDelay: time.Millisecond, Workers: 2},
	})
	t.Cleanup(reg.Close)
	ts := httptest.NewServer(NewServer(reg))
	t.Cleanup(ts.Close)
	return ts, reg
}

func postPredict(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPPredict(t *testing.T) {
	ts, reg := testServer(t)
	if _, err := reg.Register(spec("bfly", nn.Butterfly)); err != nil {
		t.Fatal(err)
	}
	features := make([]float32, 64)
	for i := range features {
		features[i] = 0.5
	}
	resp := postPredict(t, ts.URL, PredictRequest{Model: "bfly", Features: features})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var pred Prediction
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	if pred.Model != "bfly" || len(pred.Scores) != 10 || pred.BatchSize < 1 {
		t.Fatalf("bad prediction: %+v", pred)
	}
	if pred.IPU == nil || pred.IPU.LatencySeconds <= 0 {
		t.Fatalf("missing IPU cost: %+v", pred.IPU)
	}
}

func TestHTTPPredictErrors(t *testing.T) {
	ts, reg := testServer(t)
	if _, err := reg.Register(spec("m", nn.Baseline)); err != nil {
		t.Fatal(err)
	}

	resp := postPredict(t, ts.URL, PredictRequest{Model: "nope", Features: make([]float32, 64)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status = %d, want 404", resp.StatusCode)
	}

	resp = postPredict(t, ts.URL, PredictRequest{Model: "m", Features: make([]float32, 3)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong width status = %d, want 400", resp.StatusCode)
	}

	valid := string(marshalRequest(t, "m", make([]float32, 64)))
	for name, body := range map[string]string{
		"bad json":         "{not json",
		"trailing garbage": valid + "garbage",
		"second object":    valid + ` {"model":"m"}`,
	} {
		r, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s status = %d, want 400", name, r.StatusCode)
		}
	}

	g, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict status = %d, want 405", g.StatusCode)
	}
}

// TestHTTPPredictBodyTooLarge checks a body past maxPredictBody gets a 413
// with a JSON error body, and that a body at the cap is read in full.
func TestHTTPPredictBodyTooLarge(t *testing.T) {
	reg := NewRegistry(Options{})
	t.Cleanup(reg.Close)
	srv := NewServer(reg)
	for _, tc := range []struct {
		size int
		code int
	}{
		{maxPredictBody + 1, http.StatusRequestEntityTooLarge},
		{maxPredictBody, http.StatusBadRequest}, // all whitespace: no JSON value
	} {
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(bytes.Repeat([]byte(" "), tc.size)))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != tc.code {
			t.Fatalf("%d-byte body: status = %d, want %d", tc.size, w.Code, tc.code)
		}
		var eb errorBody
		if err := json.NewDecoder(w.Body).Decode(&eb); err != nil || eb.Error == "" {
			t.Fatalf("%d-byte body: error body %q (%v)", tc.size, w.Body.String(), err)
		}
	}
}

// TestHTTPPredictConcurrentPooled sends distinct rows from several
// goroutines, some on contexts cancelled while queued, and checks every
// answered row bit for bit against a direct forward pass. Under -race it
// catches a pooled feature slice reused while a worker still reads it.
func TestHTTPPredictConcurrentPooled(t *testing.T) {
	reg := testRegistry(t)
	sp := spec("bfly", nn.Butterfly)
	if _, err := reg.Register(sp); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	ref := nn.BuildSHL(sp.Method, sp.N, sp.Classes, rand.New(rand.NewSource(sp.Seed)))
	const goroutines, perG = 8, 40
	x := tensor.New(goroutines*perG, sp.N)
	x.FillRandom(rand.New(rand.NewSource(5)), 1)
	want := ref.Forward(x)
	bodies := make([][]byte, x.Rows)
	for row := range bodies {
		bodies[row] = marshalRequest(t, sp.Name, x.Row(row))
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				row := g*perG + i
				req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(bodies[row]))
				cancel := context.CancelFunc(func() {})
				cancelled := i%4 == 3
				if cancelled {
					var ctx context.Context
					ctx, cancel = context.WithTimeout(req.Context(), time.Duration(i*10)*time.Microsecond)
					req = req.WithContext(ctx)
				}
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)
				cancel()
				if w.Code != http.StatusOK {
					if !cancelled {
						t.Errorf("status %d: %s", w.Code, w.Body)
					}
					continue
				}
				var pred Prediction
				if err := json.NewDecoder(w.Body).Decode(&pred); err != nil {
					t.Error(err)
					return
				}
				for j, v := range pred.Scores {
					if math.Float32bits(v) != math.Float32bits(want.At(row, j)) {
						t.Errorf("row %d: score[%d] = %v, want %v", row, j, v, want.At(row, j))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestHTTPModelsAndStats(t *testing.T) {
	ts, reg := testServer(t)
	if _, err := reg.Register(spec("a", nn.Baseline)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(spec("b", nn.Pixelfly)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("bad /models response: %+v", infos)
	}

	// Two same-size predictions: second must hit the program cache.
	features := make([]float32, 64)
	for i := 0; i < 2; i++ {
		r := postPredict(t, ts.URL, PredictRequest{Model: "a", Features: features})
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("predict %d status = %d", i, r.StatusCode)
		}
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Cache.Hits < 1 {
		t.Fatalf("program cache hits = %d, want >= 1 after repeated same-size load", st.Cache.Hits)
	}
	if len(st.Models) != 2 {
		t.Fatalf("stats for %d models, want 2", len(st.Models))
	}
	var a ModelStats
	for _, ms := range st.Models {
		if ms.Info.Name == "a" {
			a = ms
		}
	}
	if a.Served != 2 || a.Latency.Count != 2 {
		t.Fatalf("model a stats: %+v", a)
	}
}

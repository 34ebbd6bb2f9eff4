package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// decodeSeeds covers the fast path's shape and every way out of it: key
// order, whitespace, escapes, other keys, duplicates, null, and numbers
// at and past the edges of the JSON grammar and of float32.
var decodeSeeds = []string{
	`{"model":"m","features":[0.5,-1,2e3]}`,
	`{"features":[0.5,-1,2e3],"model":"m"}`,
	" \t\r\n{ \"model\" :\n\"m\" ,\t\"features\" : [ 1 , 2 ,3 ] } \n",
	`{}`,
	`{"model":"m"}`,
	`{"features":[]}`,
	`{"model":"m","features":[]}`,
	`{"model":"m","features":null}`,
	`{"model":null,"features":[1]}`,
	`{"model":"bfly","features":[1]}`,
	`{"model":"a\"b","features":[1]}`,
	`{"model":"bütterfly","features":[1]}`,
	"{\"model\":\"\xff\",\"features\":[1]}",
	"{\"model\":\"a\tb\",\"features\":[1]}",
	`{"model":"m","features":[1],"extra":true}`,
	`{"Model":"m","FEATURES":[1]}`,
	`{"model":"m","model":"n","features":[1]}`,
	`{"model":"m","features":[1],"features":[2,3]}`,
	`{"model":"m","features":[-0]}`,
	`{"model":"m","features":[01]}`,
	`{"model":"m","features":[+1]}`,
	`{"model":"m","features":[.5]}`,
	`{"model":"m","features":[1.]}`,
	`{"model":"m","features":[1e]}`,
	`{"model":"m","features":[1e39]}`,
	`{"model":"m","features":[-1e39]}`,
	`{"model":"m","features":[1e-50]}`,
	`{"model":"m","features":[3.4028235e38]}`,
	`{"model":"m","features":[1.4e-45]}`,
	`{"model":"m","features":[0x1p3]}`,
	`{"model":"m","features":[NaN]}`,
	`{"model":"m","features":[Infinity]}`,
	`{"model":"m","features":[1,]}`,
	`{"model":"m","features":[1 2]}`,
	`{"model":"m","features":["1"]}`,
	`{"model":"m","features":[1]}garbage`,
	`{"model":"m","features":[1]} {"model":"n"}`,
	`{"model":"m","features":[1],}`,
	`{"model":"m" "features":[1]}`,
	`{"model":"m","features":[1]`,
	`{not json`,
	``,
	`[]`,
	`null`,
}

// sameRequest reports whether two decoded requests are identical,
// features bit for bit and nil-ness included.
func sameRequest(a, b PredictRequest) bool {
	if a.Model != b.Model || len(a.Features) != len(b.Features) || (a.Features == nil) != (b.Features == nil) {
		return false
	}
	for i := range a.Features {
		if math.Float32bits(a.Features[i]) != math.Float32bits(b.Features[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodePredict checks decodePredict against json.Unmarshal into a
// PredictRequest: same accept/reject and, on accept, the same request.
// The feature buffer handed in holds stale values, as a pooled one does.
func FuzzDecodePredict(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	// Width mismatches decode fine; Predict answers them with 400.
	for _, n := range []int{3, 64, 1024} {
		f.Add(marshalRequest(f, "m", benchFeatures(n)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want PredictRequest
		wantErr := json.Unmarshal(body, &want)
		got, err := decodePredict(body, []float32{7, 8, 9})
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("body %q: err = %v, json.Unmarshal err = %v", body, err, wantErr)
		}
		if err == nil && !sameRequest(got, want) {
			t.Fatalf("body %q: decoded %+v, json.Unmarshal %+v", body, got, want)
		}
	})
}

func marshalRequest(tb testing.TB, model string, features []float32) []byte {
	tb.Helper()
	b, err := json.Marshal(PredictRequest{Model: model, Features: features})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestDecodePredictFastPath pins that the bodies clients send take the
// single pass rather than the json.Unmarshal fallback, and decode to what
// json.Unmarshal gives.
func TestDecodePredictFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	features := make([]float32, 1024)
	for i := range features {
		// Magnitudes from subnormal to near the float32 maximum.
		features[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(76)-38)))
	}
	features[0], features[1] = float32(math.Copysign(0, -1)), math.MaxFloat32
	body := marshalRequest(t, "butterfly", features)
	reordered := `{"features":` + strings.TrimPrefix(string(body), `{"model":"butterfly","features":`)
	reordered = strings.TrimSuffix(reordered, "}") + `,"model":"butterfly"}`
	bodies := []string{
		string(body),
		reordered,
		" {\n\t\"model\" : \"butterfly\" ,\r\n\"features\" : [ -0 , 1.5E+3 , 2e-7 ]\n} ",
		`{"model":"m","features":[]}`,
		`{"model":"m"}`,
	}
	for _, b := range bodies {
		got, ok := decodePredictFast([]byte(b), nil)
		if !ok {
			t.Fatalf("fast path refused %.80q", b)
		}
		var want PredictRequest
		if err := json.Unmarshal([]byte(b), &want); err != nil {
			t.Fatal(err)
		}
		if !sameRequest(got, want) {
			t.Fatalf("body %.80q: decoded %+v, json.Unmarshal %+v", b, got, want)
		}
	}
}

// TestDecodePredictAllocs pins that a warm feature buffer makes decoding a
// 1024-float body allocate only the model string, not per float.
func TestDecodePredictAllocs(t *testing.T) {
	body := marshalRequest(t, "butterfly", benchFeatures(1024))
	buf := make([]float32, 0, 1024)
	allocs := testing.AllocsPerRun(20, func() {
		req, err := decodePredict(body, buf)
		if err != nil || len(req.Features) != 1024 {
			t.Fatalf("decode: %v, %d features", err, len(req.Features))
		}
	})
	if allocs > 1 {
		t.Fatalf("decodePredict allocates %v times per body, want <= 1", allocs)
	}
}

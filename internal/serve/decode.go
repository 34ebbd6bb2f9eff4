package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

const (
	// maxPredictBody caps a /predict body; larger bodies get a 413. A
	// 1024-float request is about 13 KB, so the cap leaves room for
	// layers far wider than the paper's.
	maxPredictBody = 8 << 20
	// Buffers above these sizes are dropped instead of pooled, so one
	// huge request cannot pin its memory in the pools.
	maxPooledBody     = 1 << 20
	maxPooledFeatures = 1 << 18
)

var (
	bodyPool     = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	featuresPool sync.Pool // *[]float32
)

// readPredict reads a /predict body (at most maxPredictBody bytes; past
// that the error is an *http.MaxBytesError) into a pooled buffer and
// decodes it. The returned Features may come from featuresPool; the
// caller hands them back with putFeatures once nothing reads them.
func readPredict(w http.ResponseWriter, r *http.Request) (PredictRequest, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxPredictBody)); err != nil {
		return PredictRequest{}, err
	}
	var feats []float32
	if p, ok := featuresPool.Get().(*[]float32); ok {
		feats = *p
	}
	return decodePredict(buf.Bytes(), feats)
}

// putFeatures recycles a feature slice. Only call it once no batcher
// worker can still read the slice: after Predict returned nil, the worker
// has copied the row into its batch matrix.
func putFeatures(f []float32) {
	if f == nil || cap(f) > maxPooledFeatures {
		return
	}
	f = f[:0]
	featuresPool.Put(&f)
}

// decodePredict decodes a /predict body. It agrees with json.Unmarshal
// into a fresh PredictRequest on every input: same accept or reject, same
// Model, bit-identical Features. Bodies of the shape clients send take a
// single pass that appends the features to feats[:0]; anything else
// (escapes, other keys, duplicates, null, out-of-range or malformed
// numbers, malformed JSON) falls back to json.Unmarshal.
func decodePredict(body []byte, feats []float32) (PredictRequest, error) {
	if req, ok := decodePredictFast(body, feats); ok {
		return req, nil
	}
	var req PredictRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// decodePredictFast scans {"model": <string>, "features": [<numbers>]},
// each key at most once, in either order, with any JSON whitespace. It
// reports false for anything outside that shape, including strings with
// escapes or non-ASCII bytes and numbers that ParseFloat rejects.
func decodePredictFast(b []byte, feats []float32) (req PredictRequest, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return req, false
	}
	i = skipSpace(b, i+1)
	var seenModel, seenFeatures bool
	for {
		key, j, ok := scanString(b, i)
		if !ok {
			return req, false
		}
		i = skipSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)
		switch string(key) {
		case "model":
			if seenModel {
				return req, false
			}
			seenModel = true
			s, j, ok := scanString(b, i)
			if !ok {
				return req, false
			}
			req.Model, i = string(s), j
		case "features":
			if seenFeatures {
				return req, false
			}
			seenFeatures = true
			if req.Features, i, ok = scanFloats(b, i, feats[:0]); !ok {
				return req, false
			}
		default:
			return req, false
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return req, false
		}
		if b[i] == '}' {
			return req, skipSpace(b, i+1) == len(b)
		}
		if b[i] != ',' {
			return req, false
		}
		i = skipSpace(b, i+1)
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString scans a printable-ASCII JSON string without escapes starting
// at b[i] and returns its contents and the index past the closing quote.
// Other strings take the fallback, which also replaces invalid UTF-8 with
// U+FFFD as encoding/json does.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	start := i + 1
	for i = start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[start:i], i + 1, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, i, false
		}
	}
	return nil, i, false
}

// scanFloats scans a JSON array of numbers starting at b[i], appending
// them to out, and returns the index past the closing bracket. Each
// number must match the JSON grammar and is parsed the way encoding/json
// parses a float32, so the values are bit-identical to its.
func scanFloats(b []byte, i int, out []float32) ([]float32, int, bool) {
	if i == len(b) || b[i] != '[' {
		return nil, i, false
	}
	if out == nil {
		out = []float32{} // `[]` decodes to an empty, non-nil slice
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return out, i + 1, true
	}
	for {
		j, ok := scanNumber(b, i)
		if !ok {
			return nil, i, false
		}
		f, err := strconv.ParseFloat(string(b[i:j]), 32)
		if err != nil {
			return nil, i, false
		}
		out = append(out, float32(f))
		i = skipSpace(b, j)
		if i == len(b) {
			return nil, i, false
		}
		switch b[i] {
		case ']':
			return out, i + 1, true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return nil, i, false
		}
	}
}

// scanNumber matches -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at
// b[i] and returns the index past it.
func scanNumber(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return i, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return j, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return j, false
		}
		i = j
	}
	return i, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

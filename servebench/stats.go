package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// metric is one reported number with its unit and the number of samples
// it was computed from (1 for a single measurement or an exact count).
type metric struct {
	Value   float64
	Unit    string
	Samples int
}

// metricSet keeps metrics in the order they were set, so the printed table
// reads layer by layer.
type metricSet struct {
	names []string
	m     map[string]metric
}

func (s *metricSet) set(name string, v float64, unit string, samples int) {
	if s.m == nil {
		s.m = map[string]metric{}
	}
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// result is one run's outcome: the request counts, whether every output
// matched its reference, and the metrics of the chosen mode.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   metricSet
}

// print writes a human-readable table, then the machine-readable JSON
// object as the last line.
func (r result) print(w io.Writer) error {
	fmt.Fprintf(w, "%-40s %16s  %-8s %s\n", "metric", "value", "unit", "samples")
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jsonMetric{}
	for _, name := range r.Metrics.names {
		m := r.Metrics.m[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", name, m.Value)
		}
		fmt.Fprintf(w, "%-40s %16.6g  %-8s %d\n", name, m.Value, m.Unit, m.Samples)
		out[name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the nearest-rank q-quantile of xs, which must be
// sorted ascending; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (an idle layer reads 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// spanLog collects the benchmark's own spans around calls into the
// program's public functions, by span name. Safe for concurrent use.
type spanLog struct {
	mu    sync.Mutex
	spans map[string][]time.Duration
}

func (l *spanLog) add(name string, d time.Duration) {
	l.mu.Lock()
	if l.spans == nil {
		l.spans = map[string][]time.Duration{}
	}
	l.spans[name] = append(l.spans[name], d)
	l.mu.Unlock()
}

// since records a span that started at t0 and ends now.
func (l *spanLog) since(name string, t0 time.Time) { l.add(name, time.Since(t0)) }

// millis returns the recorded durations of one span name in milliseconds.
func (l *spanLog) millis(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]float64, len(l.spans[name]))
	for i, d := range l.spans[name] {
		out[i] = ms(d)
	}
	return out
}

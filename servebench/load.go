package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/serve"
)

// record is one request of a measured pass. Times are offsets from the
// pass start.
type record struct {
	model string
	input int
	due   time.Duration // when the request was due
	sent  time.Duration // when ServeHTTP was called
	end   time.Duration // when the last ServeHTTP call returned
	code  int           // status of the last attempt
	// attempts is how many times the request was sent: a 503 is retried
	// (see maxAttempts).
	attempts int

	// ok is the verdict on the response, reached after end (off the
	// latency clock): a 200 whose scores equal the reference bit for bit.
	ok     bool
	decode time.Duration // json.Unmarshal of a 200 response body
}

// pass is one measured window of traffic against a deployment.
type pass struct {
	start   time.Time
	recs    []record
	swaps   []time.Duration // how long each re-registration took
	elapsed time.Duration   // until the last request completed
	late    []float64       // ms each request was sent after its due time

	proc processStats // process counters over the pass

	// The calibration units run during the pass and their CPU time, which
	// proc.cpu includes.
	calUnits int
	calCPU   time.Duration
}

// cpuPerReqMs is the program's process CPU time per correct response in
// ms, without the calibration's.
func (p *pass) cpuPerReqMs(ok int) float64 {
	return ratio(ms(p.proc.cpu-p.calCPU), float64(ok))
}

// calUnitMs is the mean CPU time of one calibration unit in ms.
func (p *pass) calUnitMs() float64 {
	return ratio(ms(p.calCPU), float64(p.calUnits))
}

// maxAttempts bounds how often one request is sent. The server answers
// 503 when the model version that queued the request is stopped by a
// re-registration; the registry has installed the new version by then,
// and its contract is that callers re-resolve, so a client retries at
// once. Each retry is counted (loadgen.retry_share,
// registry.stopped_per_swap) and its time is part of the request's
// latency; a request still answered 503 after maxAttempts fails.
const maxAttempts = 3

// send drives one request through Server.ServeHTTP, retrying a 503, then
// verifies the response. start is the pass start the record's offsets
// refer to.
func send(srv *serve.Server, v *verifier, start time.Time, body []byte, rec *record) {
	rec.sent = time.Since(start)
	var w *httptest.ResponseRecorder
	for rec.attempts < maxAttempts && (w == nil || w.Code == http.StatusServiceUnavailable) {
		rec.attempts++
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
		w = httptest.NewRecorder()
		srv.ServeHTTP(w, req)
	}
	rec.end = time.Since(start)
	rec.code = w.Code
	if rec.code == http.StatusOK {
		v.verify(rec, w.Body.Bytes())
	}
}

// verifier checks responses against the reference scores of the weights
// that served them, identified by the response's model version: version 1
// is the set-up registration and version k+2 the k-th swap.
type verifier struct {
	ref   *references
	swaps []int64 // butterfly weight seeds, one per swap
}

func (v *verifier) verify(rec *record, body []byte) {
	t0 := time.Now()
	var pred serve.Prediction
	err := json.Unmarshal(body, &pred)
	rec.decode = time.Since(t0)
	seed := int64(weightSeed)
	if k := pred.Version - 2; k >= 0 && k < len(v.swaps) && rec.model == "butterfly" {
		seed = v.swaps[k]
	} else if pred.Version != 1 {
		return
	}
	want := v.ref.scores[refKey{rec.model, seed}]
	rec.ok = err == nil && pred.Model == rec.model && want != nil && sameBits(pred.Scores, want[rec.input])
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// processStats are cumulative process counters, or their change over a
// pass.
type processStats struct {
	cpu    time.Duration // user+sys CPU of every thread
	allocs uint64        // heap objects allocated
	gcCPU  float64       // GC CPU seconds, as runtime/metrics estimates them
	cpuAll float64       // all CPU seconds, as runtime/metrics estimates them
}

func (a processStats) sub(b processStats) processStats {
	return processStats{a.cpu - b.cpu, a.allocs - b.allocs, a.gcCPU - b.gcCPU, a.cpuAll - b.cpuAll}
}

func readProcessStats() processStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return processStats{
		cpu:    cpuClock(clockProcessCPUTime),
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		cpuAll: s[2].Value.Float64(),
	}
}

// Linux's CPU-time clocks, which package syscall does not name.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling OS thread
)

// cpuClock reads a CPU-time clock (user+sys), exact to the nanosecond.
// getrusage is not: its RUSAGE_THREAD figure lagged the thread's CPU time
// so far that 1-ms calibration units read less than half their cost.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	// clock_gettime cannot fail for these clock ids and a valid pointer.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

// runPass offers the workload's traffic to the deployment for d, with the
// calibration running beside it, and waits for every request to complete.
// swapSeeds are the weight seeds of the butterfly re-registrations, one
// per swap interval.
func runPass(w workload, dep *deployment, in *inputs, ref *references, seed int64, d time.Duration, swapSeeds []int64) (*pass, error) {
	v := &verifier{ref: ref, swaps: swapSeeds}
	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	before := readProcessStats()
	start := time.Now()
	p := &pass{start: start}
	var swapErr error
	var swapDone sync.WaitGroup
	if len(swapSeeds) > 0 {
		swapDone.Add(1)
		go func() {
			defer swapDone.Done()
			p.swaps, swapErr = swapLoop(dep.reg, start, w.swapEvery, swapSeeds)
		}()
	}
	p.recs, p.late = openLoop(w, dep.srv, v, in, seed, start, d)
	swapDone.Wait()
	p.calUnits, p.calCPU, err = cal.finish()
	p.proc = readProcessStats().sub(before)
	if swapErr != nil {
		return nil, swapErr
	}
	if err != nil {
		return nil, err
	}
	for _, r := range p.recs {
		p.elapsed = max(p.elapsed, r.end)
	}
	return p, nil
}

// openLoop sends rate·d requests at Poisson arrival times: the count is
// fixed and the due times are sorted uniform draws over the window, which
// is a Poisson process conditioned on its count. Each request is sent on
// its own goroutine at its due time, however many are still in flight.
func openLoop(w workload, srv *serve.Server, v *verifier, in *inputs, seed int64, start time.Time, d time.Duration) ([]record, []float64) {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record, int(math.Round(w.rate*d.Seconds())))
	for i := range recs {
		recs[i].due = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].due < recs[j].due })
	for i := range recs {
		recs[i].model = w.models[rng.Intn(len(w.models))]
		recs[i].input = rng.Intn(len(in.features))
	}
	late := make([]float64, len(recs))
	var wg sync.WaitGroup
	for i := range recs {
		r := &recs[i]
		if wait := r.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = ms(time.Since(start) - r.due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(srv, v, start, in.bodies[r.model][r.input], r)
		}()
	}
	wg.Wait()
	return recs, late
}

// swapLoop re-registers butterfly with the next seed every interval,
// starting one interval after start.
func swapLoop(reg *serve.Registry, start time.Time, every time.Duration, seeds []int64) ([]time.Duration, error) {
	var out []time.Duration
	for k, s := range seeds {
		if wait := time.Duration(k+1)*every - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		t0 := time.Now()
		m, err := reg.Register(spec("butterfly", s))
		took := time.Since(t0)
		if err != nil {
			return out, fmt.Errorf("re-registering butterfly: %w", err)
		}
		if got := m.Info().Version; got != k+2 {
			return out, fmt.Errorf("swap %d installed butterfly version %d, want %d", k+1, got, k+2)
		}
		out = append(out, took)
	}
	return out, nil
}

// outcome is the verdict on a pass's responses.
type outcome struct {
	ok         int // 200 with scores equal to the reference, bit for bit
	failed     int // non-200 after every attempt, or mismatched
	mismatches int // 200 whose scores differ from the reference
	retried    int // requests answered 503 at least once
	stopped    int // attempts answered 503
	decode     []time.Duration
	// latency per request in ms (from its due time); a failed request is
	// +Inf, so it misses every latency limit.
	latency []float64
}

// summarize counts the verdicts of a pass.
func summarize(p *pass) outcome {
	o := outcome{latency: make([]float64, len(p.recs))}
	for i, r := range p.recs {
		o.latency[i] = math.Inf(1)
		if r.code == http.StatusOK {
			o.decode = append(o.decode, r.decode)
		}
		if r.attempts > 1 {
			o.retried++
		}
		o.stopped += r.attempts - 1
		if r.code == http.StatusServiceUnavailable {
			o.stopped++
		}
		switch {
		case r.ok:
			o.ok++
			o.latency[i] = ms(r.end - r.due)
		case r.code == http.StatusOK:
			o.mismatches++
			o.failed++
		default:
			o.failed++
		}
	}
	return o
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// missPenaltyMs is what a latency percentile reads when it lands on a
// failed request.
const missPenaltyMs = 1000

// okLatencies drops the failed requests' latencies.
func okLatencies(lat []float64) []float64 {
	var out []float64
	for _, l := range lat {
		if !math.IsInf(l, 1) {
			out = append(out, l)
		}
	}
	return out
}

// latencyQuantile returns the q-quantile of the latencies in ms, ranking
// failed requests above every success.
func latencyQuantile(lat []float64, q float64) float64 {
	v := quantile(sortedCopy(lat), q)
	if math.IsInf(v, 1) {
		return missPenaltyMs
	}
	return v
}

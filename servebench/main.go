// Command servebench is the serving benchmark: it drives the HTTP handler
// (serve.Server.ServeHTTP) in-process, so every request runs JSON decode →
// Model.Predict → response write, checks every response bit for bit
// against scores rebuilt from the model specs, and reports end-to-end or
// per-layer metrics for one workload.
//
//	servebench --workload steady|sharded|swap --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// runs the workload untraced and then traced (each for half of --seconds)
// and reports the per-layer metrics. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: steady, sharded or swap")
	seed := flag.Int64("seed", 1, "seed of the generated inputs, arrival schedule and swap weights")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: servebench --workload steady|sharded|swap --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// The load generator and the server share one process; cap it at two
	// CPUs so runs on larger machines measure the same contention.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	d := time.Duration(*seconds) * time.Second
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(w, *seed, d)
	} else {
		res, err = runEndToEnd(w, *seed, d)
	}
	if err == nil {
		err = res.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// runEndToEnd sets the workload up several times, measures one
// untraced window on the last deployment, and reports the end-to-end
// metrics.
func runEndToEnd(w workload, seed int64, d time.Duration) (result, error) {
	in, err := makeInputs(seed, w.models)
	if err != nil {
		return result{}, err
	}
	swaps := w.swapSeeds(seed, d)
	ref, err := buildReferences(w, in, swaps)
	if err != nil {
		return result{}, err
	}
	var (
		sp     spanLog
		setups []float64
		spent  time.Duration
		dep    *deployment
	)
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if dep != nil {
			dep.close()
		}
		runtime.GC() // start every set-up from the same collected heap
		if dep, err = deploy(w, w.options(), in, &sp); err != nil {
			return result{}, err
		}
		setups = append(setups, dep.setupCPU.Seconds())
		spent += dep.setup
	}
	defer dep.close()
	p, err := runPass(w, dep, in, ref, seed, d, swaps)
	if err != nil {
		return result{}, err
	}
	o := summarize(p)

	res := result{Correct: o.mismatches == 0, Attempted: len(p.recs), Failed: o.failed}
	m := &res.Metrics
	m.set("setup_s", median(setups), "s", len(setups))
	m.set("throughput_rps", ratio(float64(o.ok), p.elapsed.Seconds()), "1/s", o.ok)
	m.set("cpu_per_req_cal", p.cpuPerReqMs(o.ok)/p.calUnitMs(), "ratio", o.ok)
	m.set("ipu_mem_mb", float64(dep.ipuBytes)/1e6, "MB", len(w.models))
	m.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	return res, nil
}

// runTraced measures the workload twice on fresh deployments, each for
// half of d: untraced (the end-to-end configuration) and with every
// request traced. The per-layer metrics come from the traced pass, the
// process metrics from the untraced one, and trace.overhead_share
// compares their median latencies.
func runTraced(w workload, seed int64, d time.Duration) (result, error) {
	half := d / 2
	in, err := makeInputs(seed, w.models)
	if err != nil {
		return result{}, err
	}
	swaps := w.swapSeeds(seed, half)
	ref, err := buildReferences(w, in, swaps)
	if err != nil {
		return result{}, err
	}

	var spA spanLog
	depA, err := deploy(w, w.options(), in, &spA)
	if err != nil {
		return result{}, err
	}
	pA, err := runPass(w, depA, in, ref, seed, half, swaps)
	depA.close()
	if err != nil {
		return result{}, err
	}
	oA := summarize(pA)

	opts := w.options()
	opts.TraceSampleEvery = 1
	opts.TraceKeep = traceKeep(w, half)
	var sp spanLog
	depB, err := deploy(w, opts, in, &sp)
	if err != nil {
		return result{}, err
	}
	defer depB.close()
	before := snapshotCounters(depB)
	pB, err := runPass(w, depB, in, ref, seed, half, swaps)
	if err != nil {
		return result{}, err
	}
	after := snapshotCounters(depB)
	oB := summarize(pB)

	res := result{
		Correct:   oA.mismatches == 0 && oB.mismatches == 0,
		Attempted: len(pA.recs) + len(pB.recs),
		Failed:    oA.failed + oB.failed,
	}
	l := layerRun{w: w, in: in, ref: ref, dep: depB, sp: &sp, p: pB, o: oB, before: before, after: after}
	if err := l.report(&res.Metrics, pA, oA); err != nil {
		return result{}, err
	}
	return res, nil
}

// traceKeep sizes the trace ring to hold every request of a traced pass
// plus the warm-up's.
func traceKeep(w workload, d time.Duration) int {
	const warmups = 2 * maxBatch
	return int(w.rate*d.Seconds()) + warmups*len(w.models)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// The host's speed changes in phases: on a shared VM the CPU time of the
// same request moved by 1.6× within half an hour, and a small kernel timed
// up to 1.5× apart in runs seconds apart. So the benchmark runs a fixed computation
// of its own — the calibration unit — on its own OS thread all through
// the measured window, and reports the program's CPU time per request
// also in calibration units: both are averaged over the same seconds, so
// the host's speed cancels, while a change to the program moves only the
// numerator.
const (
	// Each calibration unit decodes calBodies request-shaped bodies the
	// way the HTTP layer does and multiplies each decoded vector by a
	// calRows×width matrix that stays in cache: compute-bound work like a
	// request's. (A 4-MB matrix streamed from memory slowed down less than
	// the requests in a slow phase, 1.46× against 1.84×.)
	calBodies = 4
	calRows   = 128
	// calEvery is the calibration's period: one unit of 1–2.5 ms every
	// 50 ms takes 2–5% of one of the two CPUs.
	calEvery = 50 * time.Millisecond
)

// calibration holds the fixed inputs of the calibration unit. They come
// from a constant seed, so every run times the same work.
type calibration struct {
	bodies [][]byte
	w      []float32 // calRows×width, row-major
	y      []float32
	sink   float32
}

// calRequest mirrors the shape of a predict request body.
type calRequest struct {
	Model    string    `json:"model"`
	Features []float32 `json:"features"`
}

func newCalibration() (*calibration, error) {
	rng := rand.New(rand.NewSource(1))
	c := &calibration{w: make([]float32, calRows*width), y: make([]float32, calRows)}
	for i := range c.w {
		c.w[i] = 2*rng.Float32() - 1
	}
	for i := 0; i < calBodies; i++ {
		f := make([]float32, width)
		for j := range f {
			f[j] = 2*rng.Float32() - 1
		}
		b, err := json.Marshal(calRequest{Model: "calibration", Features: f})
		if err != nil {
			return nil, fmt.Errorf("encoding calibration body: %w", err)
		}
		c.bodies = append(c.bodies, b)
	}
	return c, nil
}

// unit runs one calibration unit.
func (c *calibration) unit() error {
	for _, b := range c.bodies {
		var r calRequest
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(&r); err != nil {
			return fmt.Errorf("decoding calibration body: %w", err)
		}
		for i := range c.y {
			row := c.w[i*width : (i+1)*width]
			var s float32
			for j, x := range r.Features {
				s += row[j] * x
			}
			c.y[i] = s
		}
		c.sink += c.y[0]
	}
	return nil
}

// calibrator runs calibration units in the background until stopped.
type calibrator struct {
	stop chan struct{}
	done chan struct{}

	// Set when done is closed: the units run, their total CPU time on the
	// calibration thread, and the first error.
	units int
	cpu   time.Duration
	err   error
}

// startCalibrator runs one calibration unit every calEvery on a goroutine
// locked to its own OS thread, whose CPU time counts only the units
// themselves.
func startCalibrator() (*calibrator, error) {
	c, err := newCalibration()
	if err != nil {
		return nil, err
	}
	k := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(k.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(calEvery)
		defer t.Stop()
		for {
			select {
			case <-k.stop:
				return
			case <-t.C:
			}
			cpu0 := cpuClock(clockThreadCPUTime)
			if k.err = c.unit(); k.err != nil {
				return
			}
			k.cpu += cpuClock(clockThreadCPUTime) - cpu0
			k.units++
		}
	}()
	return k, nil
}

// finish stops the calibrator, waits for it, and returns the units it ran
// and their total CPU time.
func (k *calibrator) finish() (int, time.Duration, error) {
	close(k.stop)
	<-k.done
	if k.err == nil && k.units == 0 {
		k.err = fmt.Errorf("no calibration unit ran")
	}
	return k.units, k.cpu, k.err
}

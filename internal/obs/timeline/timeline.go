// Package timeline is the BSP phase flight recorder: a per-batch record
// of what every modelled IPU was doing — computing, exchanging, waiting
// at a barrier, or sitting in a pipeline bubble — at each micro-step of
// one executed batch, in the spirit of Graphcore's PopVision execution
// profiles.
//
// The executor (shard.ShardedPlan, at any shard count) writes events;
// the serving layer reads them back as a utilization summary
// (/debug/timeline) and as Chrome trace-event JSON loadable in Perfetto.
// Recording is built for the serving hot path:
//
//   - batches are sampled one-in-N (like obs.Tracer), so most Executes
//     pay one atomic add and nothing else;
//   - a sampled batch writes into a pre-sized per-executor event buffer
//     at fixed (step, ipu, lane) slots — no locks, no appends, and shard
//     goroutines never contend because each owns its own slots;
//   - batches are pooled and the last-N ring recycles what it evicts, so
//     steady-state recording performs zero heap allocations and a plan
//     with no recorder installed emits nothing at all.
//
// Phase semantics on the host executor: compute is a shard's measured
// kernel time inside one barrier-delimited micro-step; barrier_wait (or
// exchange, when the cost model prices IPU-Link traffic into the step)
// is the remaining step wall after that shard's kernel returned; bubble
// is a whole step spent idle because the shard owns no kernel there —
// under pipeline partitioning, exactly the fill/drain cost of the
// stages before and after the shard's own.
package timeline

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase classifies one event of the BSP execution model. The zero value
// is reserved: an Event with Phase 0 is an unused buffer slot.
type Phase uint8

const (
	phaseInvalid Phase = iota
	// Compute is a shard's kernel running inside one micro-step.
	Compute
	// Exchange is step wall attributed to modelled IPU-Link traffic
	// (all-gather, butterfly pairwise round, pipeline p2p hop).
	Exchange
	// BarrierWait is step wall after the shard's kernel returned, on
	// steps the cost model prices no exchange into — pure sync skew.
	BarrierWait
	// Bubble is a whole micro-step the shard spent idle (no kernel
	// owned): pipeline fill/drain.
	Bubble

	numPhases = 4
)

// Phases lists the real phases in a stable order — the iteration surface
// for per-phase gauges and reports.
var Phases = [numPhases]Phase{Compute, Exchange, BarrierWait, Bubble}

func (p Phase) String() string {
	switch p {
	case Compute:
		return "compute"
	case Exchange:
		return "exchange"
	case BarrierWait:
		return "barrier_wait"
	case Bubble:
		return "bubble"
	default:
		return "invalid"
	}
}

// index maps a phase to its accumulator slot (Compute = 0).
func (p Phase) index() int { return int(p) - 1 }

// Event is one phase span on one modelled IPU's track, offset-encoded
// against the batch's start so a timeline serializes without per-event
// wall clocks.
type Event struct {
	Step  int32 `json:"step"`
	IPU   int32 `json:"ipu"`
	Phase Phase `json:"phase"`
	// MB is the micro-batch index inside a wavefront-scheduled batch;
	// 0 for the single-micro-batch (barrier loop) executors.
	MB int32 `json:"mb,omitempty"`
	// StartNanos is the monotonic offset from the batch's first step;
	// DurNanos the measured span length.
	StartNanos int64 `json:"start_ns"`
	DurNanos   int64 `json:"dur_ns"`
}

// Each (step, IPU) cell owns two fixed event slots: the work lane holds
// the shard's kernel span (or the bubble covering an idle step), the
// sync lane the post-kernel barrier/exchange gap. Fixed slots are what
// make concurrent recording lock-free — writers never share a slot.
const (
	LaneWork = 0
	LaneSync = 1
	lanes    = 2
)

// Batch is one sampled batch's event buffer. It is owned by the
// executor between Recorder.Sample and Recorder.Finish; concurrent
// shard goroutines may Record into distinct (step, ipu) slots, with the
// executor's own barrier ordering the writes before Finish publishes.
type Batch struct {
	id     uint64
	start  time.Time
	rows   int
	steps  int
	micro  int
	tracks int
	wall   int64
	events []Event
}

// Begin sizes the buffer for steps×tracks cells and clears every slot.
// The first Begin on a pooled batch grows the backing array; after that
// it is a memclr.
func (b *Batch) Begin(steps, tracks, rows int) {
	b.BeginMicro(steps, 1, tracks, rows)
}

// BeginMicro sizes the buffer for a wavefront-scheduled batch of micro
// micro-batches: steps×micro×tracks cells, every slot cleared. The
// micro dimension folds into the slot layout, so micro=1 is exactly the
// classic Begin buffer.
func (b *Batch) BeginMicro(steps, micro, tracks, rows int) {
	if micro < 1 {
		micro = 1
	}
	b.steps, b.micro, b.tracks, b.rows = steps, micro, tracks, rows
	need := steps * micro * tracks * lanes
	if cap(b.events) < need {
		b.events = make([]Event, need)
	}
	b.events = b.events[:need]
	for i := range b.events {
		b.events[i] = Event{}
	}
}

// Rows returns the batch size this timeline was recorded at.
func (b *Batch) Rows() int { return b.rows }

func (b *Batch) slot(step, mb, ipu, lane int) int {
	return ((step*b.micro+mb)*b.tracks+ipu)*lanes + lane
}

// Record writes one phase span into its fixed slot. Out-of-range
// coordinates are dropped silently — a recorder installed mid-flight
// must never be able to corrupt the buffer.
func (b *Batch) Record(step, ipu, lane int, ph Phase, startNanos, durNanos int64) {
	b.RecordMicro(step, 0, ipu, lane, ph, startNanos, durNanos)
}

// RecordMicro writes one phase span of one micro-batch into its fixed
// slot. Out-of-range coordinates are dropped silently.
func (b *Batch) RecordMicro(step, mb, ipu, lane int, ph Phase, startNanos, durNanos int64) {
	if step < 0 || step >= b.steps || mb < 0 || mb >= b.micro ||
		ipu < 0 || ipu >= b.tracks || lane < 0 || lane >= lanes {
		return
	}
	b.events[b.slot(step, mb, ipu, lane)] = Event{
		Step: int32(step), IPU: int32(ipu), Phase: ph, MB: int32(mb),
		StartNanos: startNanos, DurNanos: durNanos,
	}
}

// Work returns the work-lane event of one (step, ipu) cell — how the
// orchestrator reads back a shard goroutine's compute span (the barrier
// ordered the write) to place the sync gap after it.
func (b *Batch) Work(step, ipu int) Event {
	if step < 0 || step >= b.steps || ipu < 0 || ipu >= b.tracks {
		return Event{}
	}
	return b.events[b.slot(step, 0, ipu, LaneWork)]
}

// Meta is the static description of the executor whose batches a
// recorder samples: per-micro-step names, kernel families, variants and
// the cost model's per-row modelled phase seconds. Set once (first
// executor wins — step layout is stable per model) and attached to
// every snapshot, so events stay index-only and allocation-free.
type Meta struct {
	Model    string   `json:"model"`
	Strategy string   `json:"strategy"`
	Shards   int      `json:"shards"`
	Steps    []string `json:"steps"`
	Kernels  []string `json:"kernels,omitempty"`
	Variants []string `json:"variants,omitempty"`

	// MicroBatches is the wavefront width the executor splits a full
	// batch into (1 = classic barrier loop). Descriptive only — each
	// sampled batch carries its own effective micro count.
	MicroBatches int `json:"micro_batches,omitempty"`

	// Modelled per-row seconds of each micro-step, split by phase: what
	// the cost model says one row of compute (per shard, under the
	// strategy) and exchange should cost. Multiplied by a batch's rows,
	// these are the modelled counterparts the summary and the Chrome
	// args line up against the measured spans. Nil when the executor has
	// no cost model.
	ComputeSecPerRow  []float64 `json:"compute_s_per_row,omitempty"`
	ExchangeSecPerRow []float64 `json:"exchange_s_per_row,omitempty"`
}

// StepName returns the micro-step's name, or a stable placeholder when
// the meta does not cover it.
func (m *Meta) StepName(i int) string {
	if m != nil && i >= 0 && i < len(m.Steps) {
		return m.Steps[i]
	}
	return "step"
}

func (m *Meta) kernel(i int) string {
	if m != nil && i >= 0 && i < len(m.Kernels) {
		return m.Kernels[i]
	}
	return ""
}

func (m *Meta) variant(i int) string {
	if m != nil && i >= 0 && i < len(m.Variants) {
		return m.Variants[i]
	}
	return ""
}

// microRows returns the row count of micro-batch mb when rows are split
// into micro contiguous chunks the way the wavefront executor splits
// them (chunk k covers rows [k*rows/micro, (k+1)*rows/micro)).
func microRows(rows, micro int, mb int32) int {
	if micro <= 1 {
		return rows
	}
	lo := int(mb) * rows / micro
	hi := (int(mb) + 1) * rows / micro
	return hi - lo
}

// modelledNanos prices one event under the meta's cost model: compute
// events by the step's per-row compute, exchange events by its per-row
// exchange, scaled to the event's micro-batch rows. 0 for bubbles,
// barrier waits and unpriced steps.
func (m *Meta) modelledNanos(ev Event, rows, micro int) float64 {
	if m == nil {
		return 0
	}
	i := int(ev.Step)
	n := microRows(rows, micro, ev.MB)
	switch ev.Phase {
	case Compute:
		if i < len(m.ComputeSecPerRow) {
			return m.ComputeSecPerRow[i] * float64(n) * 1e9
		}
	case Exchange:
		if i < len(m.ExchangeSecPerRow) {
			return m.ExchangeSecPerRow[i] * float64(n) * 1e9
		}
	}
	return 0
}

// BatchRecord is the detached, JSON-ready copy of one recorded batch
// that Snapshot hands out (safe to hold after the pooled original is
// recycled). Events carry only valid slots, in buffer order (grouped by
// step, then IPU; work lane before sync lane).
type BatchRecord struct {
	ID        uint64    `json:"id"`
	Start     time.Time `json:"start"`
	Rows      int       `json:"rows"`
	Steps     int       `json:"steps"`
	Micro     int       `json:"micro,omitempty"`
	Tracks    int       `json:"tracks"`
	WallNanos int64     `json:"wall_ns"`
	Events    []Event   `json:"events"`
}

// Recorder samples one executed batch in every sampleEvery into a
// pooled event buffer and keeps the last keep finished batches in a
// ring for /debug/timeline. Per-event recording is lock-free (fixed
// slots); only Finish — once per sampled batch — and the read side take
// the ring mutex.
type Recorder struct {
	every uint64
	seq   atomic.Uint64
	ids   atomic.Uint64
	pool  sync.Pool
	meta  atomic.Pointer[Meta]

	mu   sync.Mutex
	ring []*Batch
	next int
	n    int

	// Accumulated phase totals over every finished batch: measured
	// nanos per (IPU, phase), and the cost model's priced counterpart.
	// Guarded by mu; read back by Totals/PhaseSeconds/BubbleFraction.
	batches  int64
	rows     int64
	perIPU   [][numPhases]int64
	modelled [numPhases]float64
}

// NewRecorder creates a recorder sampling one batch per sampleEvery
// (minimum 1 = every batch) and retaining the last keep batches.
func NewRecorder(sampleEvery, keep int) *Recorder {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	if keep < 1 {
		keep = 1
	}
	r := &Recorder{every: uint64(sampleEvery), ring: make([]*Batch, keep)}
	r.pool.New = func() any { return &Batch{} }
	return r
}

// SampleEvery returns the sampling period.
func (r *Recorder) SampleEvery() int {
	if r == nil {
		return 0
	}
	return int(r.every)
}

// SetMeta installs the executor description once; later calls are
// no-ops (the first executor to describe itself wins, and step layout
// is identical across a model's batch buckets).
func (r *Recorder) SetMeta(m *Meta) {
	if r == nil || m == nil {
		return
	}
	r.meta.CompareAndSwap(nil, m)
}

// Meta returns the installed executor description, or nil.
func (r *Recorder) Meta() *Meta {
	if r == nil {
		return nil
	}
	return r.meta.Load()
}

// Sample returns a pooled batch buffer if this execution falls on the
// sampling grid, nil otherwise (the common, zero-cost case). The caller
// must Begin it, Record into it, and hand it to Finish.
func (r *Recorder) Sample() *Batch {
	if r == nil {
		return nil
	}
	if r.seq.Add(1)%r.every != 0 {
		return nil
	}
	b := r.pool.Get().(*Batch)
	b.id = r.ids.Add(1)
	b.start = time.Now()
	b.wall = 0
	return b
}

// Finish publishes a recorded batch: the measured wall clock is
// stamped, the per-phase totals accumulate, and the batch enters the
// last-N ring (recycling whatever it evicts). The batch must not be
// touched after Finish.
func (r *Recorder) Finish(b *Batch, wallNanos int64) {
	if r == nil || b == nil {
		return
	}
	b.wall = wallNanos
	meta := r.meta.Load()
	r.mu.Lock()
	r.batches++
	r.rows += int64(b.rows)
	if len(r.perIPU) < b.tracks {
		grown := make([][numPhases]int64, b.tracks)
		copy(grown, r.perIPU)
		r.perIPU = grown
	}
	for _, ev := range b.events {
		if ev.Phase == phaseInvalid {
			continue
		}
		r.perIPU[ev.IPU][ev.Phase.index()] += ev.DurNanos
		r.modelled[ev.Phase.index()] += meta.modelledNanos(ev, b.rows, b.micro) / 1e9
	}
	old := r.ring[r.next]
	r.ring[r.next] = b
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.mu.Unlock()
	if old != nil {
		r.pool.Put(old)
	}
}

// Snapshot returns detached copies of the retained batches, oldest
// first. Only valid event slots are copied.
func (r *Recorder) Snapshot() []BatchRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]BatchRecord, 0, r.n)
	for i := 0; i < r.n; i++ {
		b := r.ring[(r.next-r.n+i+len(r.ring))%len(r.ring)]
		rec := BatchRecord{
			ID: b.id, Start: b.start, Rows: b.rows,
			Steps: b.steps, Micro: b.micro, Tracks: b.tracks, WallNanos: b.wall,
			Events: make([]Event, 0, len(b.events)),
		}
		for _, ev := range b.events {
			if ev.Phase != phaseInvalid {
				rec.Events = append(rec.Events, ev)
			}
		}
		out = append(out, rec)
	}
	return out
}

// IPUPhaseSeconds is one modelled IPU's accumulated measured phase time
// over the recorder's sampled batches.
type IPUPhaseSeconds struct {
	Compute  float64 `json:"compute_s"`
	Exchange float64 `json:"exchange_s"`
	Barrier  float64 `json:"barrier_s"`
	Bubble   float64 `json:"bubble_s"`
}

// Of returns the named phase's seconds.
func (s IPUPhaseSeconds) Of(p Phase) float64 {
	switch p {
	case Compute:
		return s.Compute
	case Exchange:
		return s.Exchange
	case BarrierWait:
		return s.Barrier
	case Bubble:
		return s.Bubble
	default:
		return 0
	}
}

// Total returns the IPU's summed phase time — its sampled wall.
func (s IPUPhaseSeconds) Total() float64 {
	return s.Compute + s.Exchange + s.Barrier + s.Bubble
}

// Totals is the recorder's accumulated phase accounting: measured
// seconds per (IPU, phase) and the cost model's modelled counterpart,
// over every sampled batch since the recorder was created.
type Totals struct {
	Batches int64             `json:"batches"`
	Rows    int64             `json:"rows"`
	PerIPU  []IPUPhaseSeconds `json:"per_ipu"`

	// Modelled compute/exchange seconds the cost model priced the same
	// batches at (per participating IPU, summed over IPUs). Barrier and
	// bubble have no modelled counterpart — they are exactly what the
	// analytic model assumes away.
	ModelledCompute  float64 `json:"modelled_compute_s"`
	ModelledExchange float64 `json:"modelled_exchange_s"`
}

// Totals snapshots the accumulated phase accounting.
func (r *Recorder) Totals() Totals {
	if r == nil {
		return Totals{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := Totals{
		Batches: r.batches, Rows: r.rows,
		PerIPU:           make([]IPUPhaseSeconds, len(r.perIPU)),
		ModelledCompute:  r.modelled[Compute.index()],
		ModelledExchange: r.modelled[Exchange.index()],
	}
	for i, acc := range r.perIPU {
		t.PerIPU[i] = IPUPhaseSeconds{
			Compute:  float64(acc[Compute.index()]) / 1e9,
			Exchange: float64(acc[Exchange.index()]) / 1e9,
			Barrier:  float64(acc[BarrierWait.index()]) / 1e9,
			Bubble:   float64(acc[Bubble.index()]) / 1e9,
		}
	}
	return t
}

// PhaseSeconds returns one (IPU, phase) cell of the accumulated
// measured totals — the scrape-time reader behind the
// ipuserve_phase_seconds gauges.
func (r *Recorder) PhaseSeconds(ipu int, p Phase) float64 {
	if r == nil || p == phaseInvalid {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ipu < 0 || ipu >= len(r.perIPU) {
		return 0
	}
	return float64(r.perIPU[ipu][p.index()]) / 1e9
}

// BubbleFraction returns the share of all sampled per-IPU wall spent in
// pipeline bubbles (0 when nothing is recorded). Sampling scale cancels
// in the ratio, so this is an unbiased estimate of the true fraction.
func (r *Recorder) BubbleFraction() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var bubble, total int64
	for _, acc := range r.perIPU {
		for pi := 0; pi < numPhases; pi++ {
			total += acc[pi]
		}
		bubble += acc[Bubble.index()]
	}
	if total == 0 {
		return 0
	}
	return float64(bubble) / float64(total)
}

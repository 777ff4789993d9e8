// Package ingest is the producer-facing stage of the wait-free event
// pipeline and the glue that composes the repository's stack into a
// service-shaped workload:
//
//	producers ──Append──▶ SimQueue (batched announce-vectors)
//	                         │ Drain
//	                         ▼
//	                      Spool (P-Sim append log, sealed segments)
//	                         │ PSim.Read snapshots
//	                         ▼
//	                      Cursors (consumers; never block writers)
//
// Producers stamp a per-producer sequence number on every event and buffer
// Config.Batch events locally before handing them to the wait-free queue as
// ONE EnqueueBatch announce-vector — the paper's batching lever applied at
// the ingest edge, which is what makes the steady-state append path free of
// allocation and of per-event announce traffic. Drainers move queue batches
// into the spool with a single ApplyBatch per batch. Consumers read spool
// snapshots through Cursor, paying no coordination with either stage.
//
// Every process id (producer or drainer) must be driven by one goroutine at
// a time — the single-writer announce discipline of the construction.
// Cursors need no process id at all.
package ingest

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pad"
	"repro/internal/queue"
	"repro/internal/spool"
)

// Event is the ingested record (defined by the spool, which owns storage).
type Event = spool.Event

// Config sizes a Pipeline.
type Config struct {
	// Batch is the producer-side buffer: Append hands events to the queue
	// in EnqueueBatch vectors of this size (default 32). Flush submits a
	// partial batch.
	Batch int
	// Spool configures the storage stage (segment size, ring bound, time
	// bucketing).
	Spool spool.Config
	// Clock stamps Event.TS (unix nanos); tests and benchmarks may pin it.
	// Defaults to the wall clock.
	Clock func() int64
}

// Pipeline is one ingest partition: a wait-free queue in front of a spool,
// plus per-process producer and drainer state.
type Pipeline struct {
	n     int
	batch int
	clock func() int64
	q     *queue.SimQueue[Event]
	sp    *spool.Spool[Event]

	prods  []producerSlot
	drains []drainSlot

	appended *obs.Counter // events stamped by producers
	flushed  *obs.Counter // EnqueueBatch vectors submitted
	drained  *obs.Counter // events moved queue → spool
}

// producerSlot is process id i's producer state; only the goroutine driving
// id i touches it (padded so neighbouring producers never share a line).
type producerSlot struct {
	seq     uint64
	pending []Event
	_       pad.CacheLinePad
}

// drainSlot is process id i's drain scratch: reused buffers so a steady
// drain loop allocates nothing.
type drainSlot struct {
	evs  []Event
	offs []uint64
	_    pad.CacheLinePad
}

// New returns a pipeline for n process ids (producers and drainers share
// the id space; give a dedicated id to each drain loop).
func New(n int, cfg Config) *Pipeline {
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().UnixNano() }
	}
	p := &Pipeline{
		n:        n,
		batch:    cfg.Batch,
		clock:    cfg.Clock,
		q:        queue.NewSimQueue[Event](n),
		sp:       spool.NewEvents(n, cfg.Spool),
		prods:    make([]producerSlot, n),
		drains:   make([]drainSlot, n),
		appended: obs.NewCounter(n),
		flushed:  obs.NewCounter(n),
		drained:  obs.NewCounter(n),
	}
	for i := range p.prods {
		p.prods[i].pending = make([]Event, 0, cfg.Batch)
	}
	return p
}

// Append stamps payload with producer id's next sequence number and the
// clock, buffers it, and flushes the buffer through EnqueueBatch when it
// reaches Config.Batch. It returns the assigned sequence number. The
// steady-state path performs zero allocations.
func (p *Pipeline) Append(id int, payload uint64) uint64 {
	t := &p.prods[id]
	t.seq++
	t.pending = append(t.pending, Event{
		Payload:  payload,
		Seq:      t.seq,
		TS:       p.clock(),
		Producer: int32(id),
	})
	p.appended.Inc(id)
	if len(t.pending) >= p.batch {
		p.flush(id, t)
	}
	return t.seq
}

// AppendBatch stamps every payload and submits them immediately as one
// EnqueueBatch vector (flushing any buffered events first so queue order
// matches stamp order). The assigned sequence numbers are appended to seqs.
func (p *Pipeline) AppendBatch(id int, payloads []uint64, seqs []uint64) []uint64 {
	t := &p.prods[id]
	if len(t.pending) > 0 {
		p.flush(id, t)
	}
	now := p.clock()
	for _, v := range payloads {
		t.seq++
		t.pending = append(t.pending, Event{Payload: v, Seq: t.seq, TS: now, Producer: int32(id)})
		seqs = append(seqs, t.seq)
	}
	p.appended.Add(id, uint64(len(payloads)))
	if len(t.pending) > 0 {
		p.flush(id, t)
	}
	return seqs
}

// Flush submits id's partial batch (idle producers call this so trailing
// events are not stranded in the local buffer).
func (p *Pipeline) Flush(id int) {
	t := &p.prods[id]
	if len(t.pending) > 0 {
		p.flush(id, t)
	}
}

func (p *Pipeline) flush(id int, t *producerSlot) {
	p.q.EnqueueBatch(id, t.pending)
	t.pending = t.pending[:0]
	p.flushed.Inc(id)
}

// Pending returns the number of buffered (not yet enqueued) events for id.
func (p *Pipeline) Pending(id int) int { return len(p.prods[id].pending) }

// Seq returns the last sequence number stamped by producer id.
func (p *Pipeline) Seq(id int) uint64 { return p.prods[id].seq }

// Drain moves up to max events from the queue into the spool on behalf of
// process id: one DequeueBatch announce-vector, one ApplyBatch op-vector.
// It returns the number of events moved (0 when the queue is empty). The
// scratch buffers are per-id, so a dedicated drain loop allocates nothing
// in steady state.
func (p *Pipeline) Drain(id, max int) int {
	t := &p.drains[id]
	t.evs = p.q.DequeueBatch(id, max, t.evs[:0])
	if len(t.evs) == 0 {
		return 0
	}
	t.offs = p.sp.AppendBatch(id, t.evs, t.offs[:0])
	p.drained.Add(id, uint64(len(t.evs)))
	return len(t.evs)
}

// View returns a consistent snapshot of the spool (see spool.View).
func (p *Pipeline) View() spool.View[Event] { return p.sp.Snapshot() }

// Queue exposes the front queue (recording, tests, instrumentation).
func (p *Pipeline) Queue() *queue.SimQueue[Event] { return p.q }

// Spool exposes the storage stage (retention runners attach here).
func (p *Pipeline) Spool() *spool.Spool[Event] { return p.sp }

// Attach connects both stages' instruments: in reg under prefix, the
// queue's and the spool's combining counters and recorders (<prefix>_queue_*,
// <prefix>_spool_*) plus the pipeline's own stage counters; both stages'
// events (queue splices, spool rounds) interleave in tr. reg and tr may be
// nil. Call once, before any operation.
func (p *Pipeline) Attach(reg *obs.Registry, prefix string, tr *trace.Tracer) {
	qp, sp := obs.Join(prefix, "_queue"), obs.Join(prefix, "_spool")
	p.q.Attach(reg, qp, obs.NewSimRecorder(reg, qp, p.n), tr)
	p.sp.Attach(reg, sp, obs.NewSimRecorder(reg, sp, p.n), tr)
	reg.AttachCounter(obs.Join(prefix, "_appended_total"), p.appended)
	reg.AttachCounter(obs.Join(prefix, "_flushes_total"), p.flushed)
	reg.AttachCounter(obs.Join(prefix, "_drained_total"), p.drained)
}

// Stats aggregates the pipeline's counters and both stages' combining
// statistics.
type Stats struct {
	Appended uint64 // events stamped by producers
	Flushes  uint64 // enqueue vectors submitted
	Drained  uint64 // events moved queue → spool
	Queue    core.Stats
	Spool    core.Stats
}

// Stats returns a statistical snapshot (see core.StatsPlane.Aggregate for
// the snapshot-only caveat).
func (p *Pipeline) Stats() Stats {
	return Stats{
		Appended: p.appended.Total(),
		Flushes:  p.flushed.Total(),
		Drained:  p.drained.Total(),
		Queue:    p.q.Stats(),
		Spool:    p.sp.Stats(),
	}
}

// N returns the number of process ids.
func (p *Pipeline) N() int { return p.n }

// Batch returns the producer-side batch size.
func (p *Pipeline) Batch() int { return p.batch }

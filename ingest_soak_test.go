package simuc_test

import (
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	v2 "repro/internal/check/v2"
	"repro/internal/ingest"
	"repro/internal/spool"
)

// TestIngestSoakHistory10k drives the full ingest pipeline — producers
// batching appends into the wait-free queue, a drainer moving batches into
// the spool, a retention pass trimming the log, consumers reading cursor
// snapshots — while recording a 10,000-event produce/consume/retention
// history in the internal/check text format, then validates it with the
// compositional checker in -engine both mode (forward engine decides every
// partition; the Wing–Gong search cross-checks the partitions within its
// 64-operation reach and bows out of the rest with ErrTooLarge).
//
// The history composes two object classes:
//
//   - queue: producers record each AppendBatch as per-element enq ops
//     sharing the batch's call window (the vector linearizes contiguously);
//     the drainer records DequeueBatch the same way, with unfilled slots
//     returned as deq-empty.
//   - log: the drainer records each spool AppendBatch element as lapp with
//     its assigned offset; retention records TrimTo as ltrim (the spec
//     admits the segment-granular result through the returned watermark);
//     a consumer records single-event cursor reads as lget.
//
// The spool's ring bound is disabled so every watermark movement in the
// real execution is a recorded ltrim — otherwise the history would contain
// unannounced trims the log spec cannot account for.
func TestIngestSoakHistory10k(t *testing.T) {
	const (
		producers = 4
		perProd   = 2500 // producers*perProd = 10_000 events
		appBatch  = 8
		drainID   = producers
		retID     = producers + 1
		conTID    = producers + 2 // recorder thread ids for consumers
		total     = producers * perProd
		keep      = 128 // retention target: retain at most ~2*keep events
	)
	p := ingest.New(producers+2, ingest.Config{
		Batch: appBatch,
		Spool: spool.Config{SegEvents: 64, MaxSegments: 1 << 20},
	})
	q, sp := p.Queue(), p.Spool()
	rec := check.NewRecorder(120_000)

	var drained atomic.Uint64
	prodDone := make(chan struct{}, producers)

	// Producers: unique payloads (pid<<16|k+1, well within the 32-bit bound
	// the lget packing needs), recorded per element around each AppendBatch.
	for i := 0; i < producers; i++ {
		go func(pid int) {
			defer func() { prodDone <- struct{}{} }()
			payloads := make([]uint64, 0, appBatch)
			seqs := make([]uint64, 0, appBatch)
			slots := make([]int, 0, appBatch)
			for k := 0; k < perProd; k += appBatch {
				payloads, slots = payloads[:0], slots[:0]
				for j := 0; j < appBatch && k+j < perProd; j++ {
					v := uint64(pid)<<16 | uint64(k+j+1)
					payloads = append(payloads, v)
					slots = append(slots, rec.Invoke(pid, check.OpEnqueue, v))
				}
				seqs = p.AppendBatch(pid, payloads, seqs[:0])
				for _, s := range slots {
					rec.Return(s, 0, false)
				}
			}
		}(i)
	}

	// Drainer: DequeueBatch recorded per element (misses as deq-empty —
	// sound because a short batch means the queue WAS empty inside the
	// window), then the spool AppendBatch recorded as lapp per element.
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		const want = 32
		evs := make([]ingest.Event, 0, want)
		offs := make([]uint64, 0, want)
		slots := make([]int, 0, want)
		lean := false // after an empty round, record a single probe only
		for drained.Load() < total {
			n := want
			if lean {
				n = 1
			}
			slots = slots[:0]
			for j := 0; j < n; j++ {
				slots = append(slots, rec.Invoke(drainID, check.OpDequeue, 0))
			}
			evs = q.DequeueBatch(drainID, n, evs[:0])
			for j, ev := range evs {
				rec.Return(slots[j], ev.Payload, true)
			}
			for j := len(evs); j < n; j++ {
				rec.Return(slots[j], 0, false)
			}
			lean = len(evs) == 0
			if lean {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			slots = slots[:0]
			for _, ev := range evs {
				slots = append(slots, rec.Invoke(drainID, check.OpLogAppend, ev.Payload))
			}
			offs = sp.AppendBatch(drainID, evs, offs[:0])
			for j, off := range offs {
				rec.Return(slots[j], off, true)
			}
			drained.Add(uint64(len(evs)))
		}
	}()

	// Consumer 1 records single-event cursor reads; consumer 2 polls larger
	// windows unrecorded, purely to add read-side concurrency.
	consDone := make(chan uint64, 1)
	go func() {
		buf := make([]ingest.Event, 0, 1)
		var pos, skipped uint64
		lean := false
		for pos < total {
			slot := -1
			if !lean {
				slot = rec.Invoke(conTID, check.OpLogRead, pos)
			}
			v := sp.Snapshot()
			evs, next, skip := v.Read(pos, 1, buf[:0])
			if len(evs) == 1 {
				if slot >= 0 {
					rec.Return(slot, (next-1)<<32|evs[0].Payload, true)
				}
				lean = false
			} else {
				if slot >= 0 {
					rec.Return(slot, 0, false)
				}
				lean = true // caught up: stop recording misses until a hit
				time.Sleep(100 * time.Microsecond)
			}
			skipped += skip
			pos = next
		}
		consDone <- skipped
	}()
	stopPoll := make(chan struct{})
	go func() {
		var pos uint64
		buf := make([]ingest.Event, 0, 64)
		for {
			select {
			case <-stopPoll:
				return
			default:
				_, pos, _ = p.View().Read(pos, 64, buf[:0])
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	// Retention: progress-driven rather than wall-clock — the whole
	// execution takes a few milliseconds, so a timer-based pass would race
	// the shutdown and record few or no trims. Trim whenever the retained
	// window outgrows 2*keep, recorded as ltrim; the segment-granular result
	// is carried by the returned watermark.
	stopRet := make(chan struct{})
	retDone := make(chan struct{})
	go func() {
		defer close(retDone)
		var lwm uint64
		for {
			select {
			case <-stopRet:
				return
			default:
			}
			v := sp.Snapshot()
			if v.End()-lwm <= 2*keep {
				runtime.Gosched()
				continue
			}
			cut := v.End() - keep
			slot := rec.Invoke(retID, check.OpLogTrim, cut)
			lwm = sp.Do(retID, spool.TrimToOp[spool.Event](cut))
			rec.Return(slot, lwm, true)
		}
	}()

	for i := 0; i < producers; i++ {
		<-prodDone
	}
	<-drainDone
	skipped := <-consDone
	close(stopRet)
	<-retDone
	close(stopPoll)

	// Sanity on the execution itself before checking the history.
	v := sp.Snapshot()
	if v.End() != total {
		t.Fatalf("spool end=%d, want %d", v.End(), total)
	}
	t.Logf("execution: %d events, consumer skipped %d to retention, lwm=%d, %d sealed segments live",
		total, skipped, v.LowWater(), v.Segments())

	h := rec.Operations()
	if len(h) < 3*total {
		t.Fatalf("recorded %d operations, want ≥ %d (enq+deq+lapp at least)", len(h), 3*total)
	}

	// Round-trip through the text format: the history the checker sees is
	// the history a dump file would carry.
	text := v2.FormatHistory(h)
	parsed, err := v2.ParseHistory(text)
	if err != nil {
		t.Fatalf("text round trip: %v", err)
	}
	if len(parsed) != len(h) {
		t.Fatalf("text round trip lost ops: %d -> %d", len(h), len(parsed))
	}

	// SOAK_HIST dumps the recorded history for offline simcheck runs.
	if path := os.Getenv("SOAK_HIST"); path != "" {
		if err := os.WriteFile(path, text, 0o644); err != nil {
			t.Fatalf("dump history: %v", err)
		}
	}
	opts := v2.DefaultOptions()
	opts.Engine = v2.EngineBoth
	start := time.Now()
	if err := v2.CheckHistory(parsed, opts); err != nil {
		t.Fatalf("%d-op ingest history rejected or undecided: %v", len(parsed), err)
	}
	t.Logf("engine both checked %d recorded operations (%d bytes of history text) in %v",
		len(parsed), len(text), time.Since(start))
}

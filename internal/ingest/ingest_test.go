package ingest

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/retention"
	"repro/internal/spool"
)

func TestAppendFlushDrainPoll(t *testing.T) {
	p := New(2, Config{Batch: 4, Clock: func() int64 { return 1 }})
	for i := 0; i < 10; i++ {
		if seq := p.Append(0, uint64(100+i)); seq != uint64(i+1) {
			t.Fatalf("append %d stamped seq %d", i, seq)
		}
	}
	if p.Pending(0) != 2 { // 10 appends, batch 4: two flushed vectors + 2 buffered
		t.Fatalf("pending=%d, want 2", p.Pending(0))
	}
	p.Flush(0)
	if p.Pending(0) != 0 {
		t.Fatalf("pending=%d after Flush", p.Pending(0))
	}
	if n := p.Drain(1, 100); n != 10 {
		t.Fatalf("drained %d events, want 10", n)
	}
	evs, pos, skipped := p.View().Read(0, 100, nil)
	if len(evs) != 10 {
		t.Fatalf("read got %d events, want 10", len(evs))
	}
	for i, e := range evs {
		if e.Payload != uint64(100+i) || e.Seq != uint64(i+1) || e.Producer != 0 {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
	if pos != 10 || skipped != 0 {
		t.Fatalf("cursor pos=%d skipped=%d", pos, skipped)
	}
	if evs, _, _ := p.View().Read(pos, 100, evs[:0]); len(evs) != 0 {
		t.Fatalf("caught-up cursor returned %d events", len(evs))
	}
	st := p.Stats()
	if st.Appended != 10 || st.Drained != 10 || st.Flushes != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAppendBatchStampsAndEnqueuesImmediately(t *testing.T) {
	p := New(2, Config{Batch: 64})
	p.Append(0, 1) // buffered
	seqs := p.AppendBatch(0, []uint64{2, 3, 4}, nil)
	if len(seqs) != 3 || seqs[0] != 2 || seqs[2] != 4 {
		t.Fatalf("seqs = %v", seqs)
	}
	if p.Pending(0) != 0 {
		t.Fatal("AppendBatch left events buffered")
	}
	if n := p.Drain(1, 100); n != 4 { // the buffered event flushed first
		t.Fatalf("drained %d, want 4 (buffered event flushed ahead)", n)
	}
	evs, _, _ := p.View().Read(0, 100, nil)
	for i, e := range evs {
		if e.Payload != uint64(i+1) || e.Seq != uint64(i+1) {
			t.Fatalf("order broken: event %d = %+v", i, e)
		}
	}
}

func TestCursorCountsRetentionGap(t *testing.T) {
	p := New(2, Config{Batch: 1, Spool: spool.Config{SegEvents: 4, MaxSegments: 1 << 20}})
	for i := 0; i < 20; i++ {
		p.Append(0, uint64(i))
	}
	p.Drain(1, 100)
	r := retention.NewRunner(p.Spool(), 1, retention.Policy{MaxEvents: 5})
	lwm := r.Pass()
	if lwm == 0 {
		t.Fatal("retention pass did not advance the watermark")
	}
	evs, _, skipped := p.View().Read(0, 100, nil)
	if skipped != lwm {
		t.Fatalf("cursor skipped %d, watermark %d", skipped, lwm)
	}
	if uint64(len(evs)) != 20-lwm {
		t.Fatalf("cursor got %d events, want %d", len(evs), 20-lwm)
	}
	if evs[0].Payload != lwm {
		t.Fatalf("first surviving event %+v, want payload %d", evs[0], lwm)
	}
}

// TestPipelineConcurrent drives producers, a drainer, a retention runner and
// snapshot consumers together — the full dataflow under the race detector.
// Consumers keep their own cursor and assert the read contract: positions
// monotone, every offset returned or counted as skipped, per-producer
// sequence numbers strictly increasing.
func TestPipelineConcurrent(t *testing.T) {
	const (
		producers = 3
		per       = 2000
		drainID   = producers
		retID     = producers + 1
	)
	p := New(producers+2, Config{Batch: 8, Spool: spool.Config{SegEvents: 64, MaxSegments: 1 << 20}})
	var produced atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				p.Append(id, uint64(id)<<32|uint64(k))
			}
			p.Flush(id)
			produced.Add(per)
		}(i)
	}

	stopDrain := make(chan struct{})
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for {
			n := p.Drain(drainID, 128)
			select {
			case <-stopDrain:
				for p.Drain(drainID, 128) > 0 { // final sweep
				}
				return
			default:
			}
			if n == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	r := retention.NewRunner(p.Spool(), retID, retention.Policy{MaxEvents: 1024})
	r.Start(500 * time.Microsecond)

	consDone := make(chan error, 2)
	for c := 0; c < 2; c++ {
		go func() {
			var pos uint64
			buf := make([]Event, 0, 64)
			lastSeq := make(map[int32]uint64)
			for {
				evs, next, skipped := p.View().Read(pos, 64, buf[:0])
				if next < pos {
					consDone <- errTest("cursor position regressed")
					return
				}
				// The cursor contract: every offset is either returned or
				// counted as skipped, never both, never neither.
				if next-pos != skipped+uint64(len(evs)) {
					consDone <- errTest("cursor advance != skipped + returned")
					return
				}
				pos = next
				for _, e := range evs {
					if e.Seq <= lastSeq[e.Producer] {
						consDone <- errTest("per-producer seq not increasing")
						return
					}
					lastSeq[e.Producer] = e.Seq
				}
				if produced.Load() == producers*per && pos >= uint64(producers*per) {
					consDone <- nil
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stopDrain)
	<-drainDone
	for c := 0; c < 2; c++ {
		if err := <-consDone; err != nil {
			t.Fatal(err)
		}
	}
	r.Stop()

	v := p.View()
	if v.End() != producers*per {
		t.Fatalf("spool end=%d, want %d", v.End(), producers*per)
	}
	st := p.Stats()
	if st.Appended != producers*per || st.Drained != producers*per {
		t.Fatalf("stats = %+v", st)
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

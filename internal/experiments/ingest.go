package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/ingest"
	"repro/internal/obs/trace"
	"repro/internal/workload"
)

// IngestMakers returns the ingest-pipeline contenders: one instance per
// producer batch size. One harness op call is one AppendBatch of b stamped
// events followed by a Drain of up to b events through the universal
// construction into the spool, so the measured steady state is the full
// producer→queue→spool path with the system balanced (the queue never grows
// without bound). Every thread is both a producer and a drainer, the shape a
// daemon reaches when its connection handlers drain opportunistically.
//
// The spool runs with the default segment ring bound, so retention expiry is
// part of the measured loop (old segments fall off the ring inside the same
// linearized append operations). OpsPerCall makes the harness report
// per-EVENT figures: ns/op is ns per appended event, and 1e9/ns_op is the
// sustained events/sec the issue's acceptance gate reads.
func IngestMakers(batches []int) []harness.Maker {
	var makers []harness.Maker
	for _, b := range batches {
		makers = append(makers, func(n int) harness.Instance {
			p := ingest.New(n, ingest.Config{Batch: b})
			args := make([][]uint64, n)
			seqs := make([][]uint64, n)
			for i := range args {
				args[i] = make([]uint64, b)
				seqs[i] = make([]uint64, 0, b)
			}
			return harness.Instance{
				Name:       fmt.Sprintf("Ingest b=%d", b),
				OpsPerCall: b,
				Op: func(id int, rng *workload.RNG) {
					pay := args[id]
					for i := range pay {
						pay[i] = rng.Uint64()
					}
					seqs[id] = p.AppendBatch(id, pay, seqs[id][:0])
					p.Drain(id, b)
				},
				Trace: func(tr *trace.Tracer) { p.Attach(nil, "", tr) },
			}
		})
	}
	return makers
}

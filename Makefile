# Development targets for the Sim universal construction reproduction.

GO ?= go

.PHONY: all build vet test race short bench bench-json examples experiments check metrics-demo flight-demo ingest-demo largeobject-demo timeline-demo clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./... -count=1 -timeout 900s

short:
	$(GO) test ./... -count=1 -short -timeout 300s

race:
	$(GO) test -race ./... -count=1 -timeout 1800s

bench:
	$(GO) test -bench=. -benchmem -timeout 3000s ./...

# Regenerate every figure/table at CI scale (paper scale: OPS=1000000 REPS=10).
OPS ?= 200000
REPS ?= 3
experiments:
	$(GO) run ./cmd/simbench -experiment all -ops $(OPS) -reps $(REPS)

# Refresh the machine-readable perf trajectory (ns/op with its spread,
# allocs/op, helping degree for the fig2/fig3 families) checked in as
# BENCH_psim.json.
bench-json:
	$(GO) run ./cmd/simbench -experiment fig2,fig3stack,fig3queue,fig2-batch,map,ingest,largeobject-crossover \
		-ops $(OPS) -reps $(REPS) -ingest-batch 1,8,32 -json BENCH_psim.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/bankaccount
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/largeobject
	$(GO) run ./examples/kvstore
	$(GO) run ./examples/priorityqueue

# Linearizability + conservation stress across every implementation.
check:
	$(GO) run ./cmd/simcheck -object stack -impl sim
	$(GO) run ./cmd/simcheck -object stack -impl sim -mode linearize
	$(GO) run ./cmd/simcheck -object queue -impl sim
	$(GO) run ./cmd/simcheck -object queue -impl sim -mode linearize
	$(GO) run ./cmd/simcheck -object fmul -impl psim -mode linearize
	$(GO) run ./cmd/simcheck -object fmul -impl pool -mode linearize
	$(GO) run ./cmd/simcheck -object queue -impl sim -batch 8
	$(GO) run ./cmd/simcheck -object queue -impl sim -batch 4 -mode linearize
	$(GO) run ./cmd/simcheck -object stack -impl sim -batch 8
	$(GO) run ./cmd/simcheck -object fmul -impl psim -batch 8 -mode linearize
	$(GO) run ./cmd/simcheck -object map
	$(GO) run ./cmd/simcheck -object map -batch 4 -mode linearize

# Boot simkvd with live metrics, drive a little traffic, scrape /metrics in
# both formats, then shut the daemon down. Uses bash's /dev/tcp so the demo
# needs no netcat.
metrics-demo:
	$(GO) build -o /tmp/simkvd ./cmd/simkvd
	bash -c '/tmp/simkvd -addr 127.0.0.1:7070 -metrics-addr 127.0.0.1:9090 & \
	  trap "kill $$!" EXIT; sleep 0.5; \
	  exec 3<>/dev/tcp/127.0.0.1/7070; \
	  printf "PUT a 1\nPUT b 2\nGET a\nDEL b\nSTATS\nQUIT\n" >&3; cat <&3; \
	  echo "--- prometheus ---"; curl -s http://127.0.0.1:9090/metrics | head -40; \
	  echo "--- json ---"; curl -s "http://127.0.0.1:9090/metrics?format=json"; echo'

flight-demo:
	$(GO) build -o /tmp/simkvd ./cmd/simkvd
	bash -c '/tmp/simkvd -addr 127.0.0.1:7071 -metrics-addr 127.0.0.1:9091 -flight 256 -watchdog 64 & \
	  trap "kill $$!" EXIT; sleep 0.5; \
	  exec 3<>/dev/tcp/127.0.0.1/7071; \
	  printf "PUT a 1\nPUT b 2\nPUT a 3\nDEL b\nGET a\nQUIT\n" >&3; cat <&3; \
	  echo "--- flight recorder (newest 20 events) ---"; \
	  curl -s "http://127.0.0.1:9091/debug/flight?format=text&last=20"; \
	  echo "--- chrome trace -> /tmp/flight.json (open in Perfetto) ---"; \
	  curl -s "http://127.0.0.1:9091/debug/flight" -o /tmp/flight.json; \
	  wc -c /tmp/flight.json'

# Boot simkvd with the large-value tier on, store a mix of small and large
# values, and read STATS back: blob_small/blob_large show which engine
# (inline P-Sim stripes vs L-Sim item records) served each write.
largeobject-demo:
	$(GO) build -o /tmp/simkvd ./cmd/simkvd
	bash -c '/tmp/simkvd -addr 127.0.0.1:7072 -large-threshold 64 & \
	  trap "kill $$!" EXIT; sleep 0.5; \
	  big=$$(printf "x%.0s" $$(seq 1 256)); \
	  exec 3<>/dev/tcp/127.0.0.1/7072; \
	  printf "BPUT tiny hello\nBPUT blob $$big\nBPUT blob $${big}2\nBGET tiny\nBDEL tiny\nSTATS\nQUIT\n" >&3; \
	  cat <&3 | sed "s/VAL x\{20\}.*/VAL x...(large value elided)/"'

# Self-driving ingest smoke: boot simingestd on a loopback port, publish 50k
# events from pipelined producers, poll every partition, and verify sequence
# gaplessness, cursor monotonicity, event conservation, and retention
# high-watermark movement — the same gate CI runs.
ingest-demo:
	$(GO) run ./cmd/simingestd -smoke 50000 -shards 2 -batch 32 -seg 256

# Boot simkvd with a fast timeline scrape and an impossible throughput SLO,
# drive traffic, then show the breach escalating to stderr, the windowed
# /debug/timeline history, and one simstat console frame.
timeline-demo:
	$(GO) build -o /tmp/simkvd ./cmd/simkvd
	$(GO) build -o /tmp/simstat ./cmd/simstat
	bash -c '/tmp/simkvd -addr 127.0.0.1:7073 -metrics-addr 127.0.0.1:9093 \
	    -timeline 100ms -slo "ops>=1000000@1s" & \
	  trap "kill $$!" EXIT; sleep 0.5; \
	  exec 3<>/dev/tcp/127.0.0.1/7073; \
	  printf "PUT a 1\nPUT b 2\nGET a\nPUT a 3\nDEL b\nQUIT\n" >&3; cat <&3; \
	  sleep 1; \
	  echo "--- /debug/timeline (map series, newest samples) ---"; \
	  curl -s "http://127.0.0.1:9093/debug/timeline?window=10s&series=map" | tail -30; \
	  echo "--- simstat frame ---"; \
	  /tmp/simstat -addr 127.0.0.1:9093 -once'

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt

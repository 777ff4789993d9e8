package lineserver

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/obs/trace"
)

// Service is what a daemon serves: a line server with its metrics
// registry and flight recorder (nil when off).
type Service interface {
	Listen(addr string) (string, error)
	Close() error
	Registry() *obs.Registry
	Tracer() *trace.Tracer
}

// Ops configures the operations surface simkvd and simingestd share.
type Ops struct {
	Name        string        // prefix of every line printed, e.g. "simkvd"
	MetricsAddr string        // serve /metrics and /debug here; "" disables
	Timeline    time.Duration // telemetry-timeline scrape interval; 0 disables
	SLO         string        // SLO rules over the timeline; needs Timeline
	Watchdog    int           // stall budget in committed rounds; 0 disables; needs the tracer
}

// Daemon is a listening Service with its operations surface: the
// telemetry timeline with its SLO breach printer, the progress watchdog
// with its stall printer, and the /metrics + /debug listener.
type Daemon struct {
	Addr     string // the service's bound address
	srv      Service
	ops      Ops
	timeline *timeline.Timeline
	watchdog *trace.Watchdog
	metrics  net.Listener
	served   chan struct{} // closed when the metrics server returns
}

// Start makes srv listen on addr and starts the surface ops asks for. On
// error everything started, srv included, is closed again.
func Start(srv Service, addr string, ops Ops) (*Daemon, error) {
	bound, err := srv.Listen(addr)
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &Daemon{Addr: bound, srv: srv, ops: ops}
	if err := d.startOps(); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (d *Daemon) startOps() error {
	name, srv := d.ops.Name, d.srv
	if d.ops.Timeline > 0 {
		rules, err := timeline.ParseRules(d.ops.SLO)
		if err != nil {
			return err
		}
		d.timeline = timeline.New(srv.Registry(), timeline.Config{
			Interval: d.ops.Timeline,
			Rules:    rules,
			OnBreach: func(b timeline.Breach) {
				if b.Cleared {
					fmt.Fprintf(os.Stderr, "%s: slo: %s recovered (value %.4g, violated for %s)\n",
						name, b.Rule.Name(), b.Value, time.Duration(b.SinceNs))
					return
				}
				fmt.Fprintf(os.Stderr, "%s: slo: BREACH %s (value %.4g)\n", name, b.Rule.Name(), b.Value)
			},
		})
		d.timeline.Start()
	} else if d.ops.SLO != "" {
		return fmt.Errorf("-slo requires -timeline")
	}
	if d.ops.Watchdog > 0 {
		tl := d.timeline
		d.watchdog = trace.NewWatchdog(srv.Tracer(), uint64(d.ops.Watchdog), func(s trace.Stall) {
			fmt.Fprintf(os.Stderr, "%s: watchdog: pid %d stalled: %d announced op(s) uncommitted for %d rounds (%s)\n",
				name, s.Pid, s.Pending, s.Rounds, s.Since)
			if tl != nil {
				tl.RecordStall(s.Pid, s.Rounds)
			}
		})
		d.watchdog.Start(100 * time.Millisecond)
	}
	if d.ops.MetricsAddr != "" {
		ln, err := net.Listen("tcp", d.ops.MetricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(srv.Registry()))
		var tlHandler http.Handler
		if d.timeline != nil {
			tlHandler = timeline.Handler(d.timeline)
		}
		trace.RegisterDebug(mux, srv.Tracer(), tlHandler)
		d.metrics = ln
		d.served = make(chan struct{})
		go func() {
			defer close(d.served)
			_ = http.Serve(ln, mux) // returns when ln closes
		}()
	}
	return nil
}

// MetricsAddr returns the bound metrics address, or "" if metrics are off.
func (d *Daemon) MetricsAddr() string {
	if d.metrics == nil {
		return ""
	}
	return d.metrics.Addr().String()
}

// Close stops the watchdog and the timeline, closes the service (waiting
// for its connections to drain), then the metrics listener.
func (d *Daemon) Close() error {
	if d.watchdog != nil {
		d.watchdog.Stop()
	}
	if d.timeline != nil {
		d.timeline.Stop()
	}
	err := d.srv.Close()
	if d.metrics != nil {
		d.metrics.Close()
		<-d.served
	}
	return err
}

// Run prints where the operations surface is, waits for an interrupt, and
// closes the daemon.
func (d *Daemon) Run() {
	name := d.ops.Name
	if ma := d.MetricsAddr(); ma != "" {
		fmt.Printf("%s metrics on http://%s/metrics\n", name, ma)
		if d.srv.Tracer() != nil {
			fmt.Printf("%s flight recorder on http://%s/debug/flight (pprof under /debug/pprof/)\n", name, ma)
		}
	}
	if d.watchdog != nil {
		fmt.Printf("%s progress watchdog armed: budget %d rounds\n", name, d.ops.Watchdog)
	}
	if d.timeline != nil {
		fmt.Printf("%s timeline scraping every %s (%d series)\n", name, d.ops.Timeline, len(d.timeline.SeriesNames()))
		for _, r := range d.timeline.Rules() {
			fmt.Printf("%s slo rule armed: %s\n", name, r.Name())
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Printf("%s: shutting down\n", name)
	d.Close()
}

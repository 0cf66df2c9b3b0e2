package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/trace"
)

// daemonWorkload is one traffic mix against an in-process calciomd.
type daemonWorkload struct {
	name   string
	inputs func(seed uint64) daemonInputs
	conns  int  // mux connections; 0 gives every session its own v1 JSON connection
	record bool // daemon-side trace recording, verified by replay after the window
}

var (
	muxStorm  = daemonWorkload{name: "mux-storm", inputs: muxStormInputs, conns: 2}
	hotTarget = daemonWorkload{name: "hot-target", inputs: hotTargetInputs, conns: 2, record: true}
	plainJSON = daemonWorkload{name: "plain-json", inputs: plainJSONInputs, record: true}
)

// stack is one booted daemon with every generated session registered.
type stack struct {
	srv     *server.Server
	reg     *obs.Registry
	served  chan error
	tw      *trace.Writer
	tbuf    *bytes.Buffer
	muxes   []*client.Mux
	clients []*client.Client
	targets []client.Target // per session, scoped to its generated target
	openNs  []float64       // per session: Mux.Client or Dial, plus Register
}

// openStack boots the daemon, opens and registers every session, and runs
// one warm-up cycle per session, so shards exist and every session is bound
// to its target before anything is measured.
func openStack(wl daemonWorkload, in daemonInputs) (*stack, error) {
	st := &stack{reg: obs.NewRegistry(), served: make(chan error, 1)}
	cfg := server.Config{Policy: core.FCFSPolicy{}, Metrics: st.reg}
	if wl.record {
		st.tbuf = new(bytes.Buffer)
		// calciomd's default recording settings.
		tw, err := trace.NewWriterOptions(st.tbuf, trace.Header{Source: trace.SourceDaemon, Policy: "fcfs"},
			trace.Options{SyncEvery: trace.DefaultSyncEvery, SyncInterval: trace.DefaultSyncInterval})
		if err != nil {
			return nil, err
		}
		st.tw, cfg.Trace = tw, tw
	}
	srv, err := server.New(cfg)
	var ln net.Listener
	if err == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		if st.tw != nil {
			st.tw.Close()
		}
		return nil, err
	}
	st.srv = srv
	go func() { st.served <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	for i := 0; i < wl.conns; i++ {
		m, err := client.DialMux(addr, client.Options{})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("dial mux: %w", err)
		}
		st.muxes = append(st.muxes, m)
	}
	// Each worker opens its own sessions and runs their warm-up cycles, all
	// workers at once, as the applications would start.
	st.openNs = make([]float64, len(in.Sessions))
	st.targets = make([]client.Target, len(in.Sessions))
	clients := make([]*client.Client, len(in.Sessions))
	errs := make([]error, len(in.Workers))
	var wg sync.WaitGroup
	for k, visit := range in.Workers {
		wg.Add(1)
		go func(k int, visit []int) {
			defer wg.Done()
			for _, i := range visit {
				t0 := time.Now()
				var c *client.Client
				var err error
				if wl.conns > 0 {
					c, err = st.muxes[in.Sessions[i].Conn].Client()
				} else {
					c, err = client.Dial(addr)
				}
				if err == nil {
					clients[i] = c
					err = c.Register(in.Sessions[i].Name, 1)
				}
				st.openNs[i] = float64(time.Since(t0).Nanoseconds())
				if err != nil {
					errs[k] = fmt.Errorf("open session %s: %w", in.Sessions[i].Name, err)
					return
				}
				st.targets[i] = c.Target(in.Sessions[i].Target)
			}
			for _, i := range visit {
				if err := grantCycle(st.targets[i]); err != nil {
					errs[k] = fmt.Errorf("warm-up cycle of %s: %w", in.Sessions[i].Name, err)
					return
				}
			}
		}(k, visit)
	}
	wg.Wait()
	for _, c := range clients {
		if c != nil {
			st.clients = append(st.clients, c)
		}
	}
	for _, err := range errs {
		if err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// close disconnects every session, shuts the daemon down, and closes the
// trace writer once the daemon no longer records into it.
func (st *stack) close() error {
	for _, c := range st.clients {
		c.Close()
	}
	for _, m := range st.muxes {
		m.Close()
	}
	err := st.srv.Close()
	if e := <-st.served; err == nil {
		err = e
	}
	if st.tw != nil {
		if e := st.tw.Close(); err == nil {
			err = e
		}
	}
	return err
}

// grantCycle is one CALCioM I/O phase with no I/O in it.
func grantCycle(tg client.Target) error {
	if err := tg.Inform(); err != nil {
		return err
	}
	if err := tg.Wait(); err != nil {
		return err
	}
	if err := tg.Release(0); err != nil {
		return err
	}
	return tg.End()
}

// cycleRec is one traced grant cycle: its start, in nanoseconds from the
// window's start, and the start and end of Inform, Wait, Release and End,
// in that order, as nanosecond offsets from it.
type cycleRec struct {
	start int64
	marks [8]uint32
}

// sliceStat is one slice of a window: its completion rate and CPU cost.
type sliceStat struct {
	itemsPerS, cpuUsPerItem float64
}

// windowSlices is how many equal slices a window's rate is the median of,
// so a stall in one slice does not move the figure.
const windowSlices = 20

// warmUp is how long a workload runs unmeasured before its window.
func warmUp(window time.Duration) time.Duration {
	return min(time.Second, window/10)
}

// sliceClock samples completion count and CPU time at slice boundaries.
type sliceClock struct {
	start   time.Time
	prevT   time.Time
	prevN   int64
	prevCPU time.Duration
	slices  []sliceStat
}

func newSliceClock() *sliceClock {
	now := time.Now()
	return &sliceClock{start: now, prevT: now, prevCPU: readUsage().cpu}
}

// tick closes the current slice at n completions.
func (c *sliceClock) tick(n int64) {
	now, cpu := time.Now(), readUsage().cpu
	dn := float64(n - c.prevN)
	c.slices = append(c.slices, sliceStat{
		itemsPerS:    dn / now.Sub(c.prevT).Seconds(),
		cpuUsPerItem: float64((cpu - c.prevCPU).Microseconds()) / dn,
	})
	c.prevT, c.prevN, c.prevCPU = now, n, cpu
}

// String lists the slice rates.
func (c *sliceClock) String() string {
	var b strings.Builder
	for i, s := range c.slices {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f", s.itemsPerS)
	}
	return b.String()
}

// rates returns the medians over the slices.
func (c *sliceClock) rates() (itemsPerS, cpuUsPerItem float64) {
	var a, b []float64
	for _, s := range c.slices {
		a = append(a, s.itemsPerS)
		b = append(b, finite(s.cpuUsPerItem))
	}
	return median(a), median(b)
}

// window is one measured period of closed-loop grant cycles.
type window struct {
	clock       *sliceClock
	grants      int64 // successful Waits, counted by the clients
	calls       int
	failed      int
	errs        []string
	served      uint64 // daemon's GrantsServed delta
	cycleUs     []float64
	waitUs      []float64
	recs        [][]cycleRec // per worker, traced windows only
	reg0, reg1  regSnap
	rt0, rt1    rtSample
	use0, use1  usage
	elapsedSecs float64
}

// runWindow drives every worker for d, counting completions per slice, then
// stops them; each finishes the cycle it is in.
func runWindow(st *stack, in daemonInputs, d time.Duration, traced bool) *window {
	w := &window{}
	served0 := st.srv.GrantsServed()
	w.reg0, w.rt0, w.use0 = scrape(st.reg), readRuntime(), readUsage()
	type wres struct {
		grants, calls int
		err           error
		cycle, wait   []uint32
		recs          []cycleRec
	}
	res := make([]wres, len(in.Workers))
	var stop atomic.Bool
	var done atomic.Int64
	var wg sync.WaitGroup
	w.clock = newSliceClock()
	base := w.clock.start
	for k, visit := range in.Workers {
		wg.Add(1)
		go func(r *wres, visit []int) {
			defer wg.Done()
			var m [8]int64
			for n := 0; !stop.Load(); n++ {
				tg := st.targets[visit[n%len(visit)]]
				m[0] = int64(time.Since(base))
				r.calls++
				err := tg.Inform()
				if traced {
					m[1] = int64(time.Since(base))
				}
				if err == nil {
					r.calls++
					m[2] = int64(time.Since(base))
					err = tg.Wait()
					m[3] = int64(time.Since(base))
				}
				if err == nil {
					r.grants++
					r.calls++
					if traced {
						m[4] = int64(time.Since(base))
					}
					err = tg.Release(0)
					if traced {
						m[5] = int64(time.Since(base))
					}
				}
				if err == nil {
					r.calls++
					if traced {
						m[6] = int64(time.Since(base))
					}
					err = tg.End()
					m[7] = int64(time.Since(base))
				}
				if err != nil {
					r.err = err
					return
				}
				done.Add(1)
				r.cycle = append(r.cycle, uint32(min(m[7]-m[0], 1<<32-1)))
				r.wait = append(r.wait, uint32(min(m[3]-m[2], 1<<32-1)))
				if traced {
					rec := cycleRec{start: m[0]}
					for i := range rec.marks {
						rec.marks[i] = uint32(min(m[i]-m[0], 1<<32-1))
					}
					r.recs = append(r.recs, rec)
				}
			}
		}(&res[k], visit)
	}
	for i := 1; i <= windowSlices; i++ {
		time.Sleep(time.Until(base.Add(time.Duration(i) * d / windowSlices)))
		w.clock.tick(done.Load())
	}
	stop.Store(true)
	wg.Wait()
	w.elapsedSecs = time.Since(base).Seconds()
	w.use1, w.rt1, w.reg1 = readUsage(), readRuntime(), scrape(st.reg)
	w.served = st.srv.GrantsServed() - served0
	for _, r := range res {
		w.grants += int64(r.grants)
		w.calls += r.calls
		if r.err != nil {
			w.failed++
			w.errs = append(w.errs, r.err.Error())
		}
		for i := range r.cycle {
			w.cycleUs = append(w.cycleUs, float64(r.cycle[i])/1e3)
			w.waitUs = append(w.waitUs, float64(r.wait[i])/1e3)
		}
		if traced {
			w.recs = append(w.recs, r.recs)
		}
	}
	return w
}

// checkWindow records the window's calls and its grant-accounting check.
func (w *window) checkWindow(r *result, label string) {
	r.add(w.calls, w.failed)
	for _, e := range w.errs {
		r.problems = append(r.problems, label+": "+e)
	}
	r.check(w.served == uint64(w.grants),
		"%s: daemon served %d grants, clients counted %d", label, w.served, w.grants)
}

func runDaemon(o options, wl daemonWorkload) (*result, error) {
	r := newResult()
	in := wl.inputs(o.seed)
	var st *stack
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i, err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = openStack(wl, in); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["live_heap_mb"] = liveHeapMB()

	// Load the daemon before measuring: heap growth, goroutine stacks and
	// the GC pacer settle under the closed loop, not inside the window.
	warm := runWindow(st, in, warmUp(o.window), false)
	warm.checkWindow(r, "warm-up")
	var plain, w *window
	if o.trace {
		plain = runWindow(st, in, o.window/2, false)
		plain.checkWindow(r, "untraced window")
		w = runWindow(st, in, o.window/2, true)
		w.checkWindow(r, "traced window")
	} else {
		w = runWindow(st, in, o.window, false)
		w.checkWindow(r, "window")
	}
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	rate, cpu := w.clock.rates()
	r.e2e["items_per_s"] = rate
	r.e2e["cpu_us_per_item"] = cpu
	r.e2e["latency_p50_us"] = quantile(w.cycleUs, 0.5)
	r.e2e["latency_p90_us"] = quantile(w.cycleUs, 0.9)
	n := len(w.cycleUs)
	r.printf("workload %s seed %d GOMAXPROCS %d sessions %d workers %d window %.1fs",
		wl.name, o.seed, runtime.GOMAXPROCS(0), len(in.Sessions), len(in.Workers), w.elapsedSecs)
	r.printf("grants_per_s       %12.1f 1/s  (median of %d slices: %s)", rate, len(w.clock.slices), w.clock)
	r.printf("cycle_p50_us       %12.2f us   (n=%d)", r.e2e["latency_p50_us"], n)
	r.printf("cycle_p90_us       %12.2f us   (n=%d)", r.e2e["latency_p90_us"], n)
	r.printf("wait_p50_us        %12.2f us   (n=%d)", quantile(w.waitUs, 0.5), n)
	r.printf("wait_p90_us        %12.2f us   (n=%d)", quantile(w.waitUs, 0.9), n)
	r.printf("cpu_us_per_grant   %12.2f us", cpu)

	if wl.record {
		verifyTrace(r, st)
	}
	r.printf("failed_frac        %12.6f      (%d of %d)", finite(float64(r.failed)/float64(r.attempted)), r.failed, r.attempted)
	r.printf("setup_s            %12.4f s    (median of %d: %.4f)", r.e2e["setup_s"], len(setups), setups)
	r.printf("live_heap_mb       %12.3f MB", r.e2e["live_heap_mb"])

	if o.trace {
		daemonLayers(r, wl, in, st, plain, w)
		if err := writeCycleSpans(o.out, wl.name, w.recs); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// verifyTrace checks the daemon's recording once the daemon has shut down:
// nothing dropped, replay reproduces every recorded grant and revoke, the
// replayed grant count equals the daemon's, and no two applications held
// one target at once. It also times trace.Read and replay.Verify.
func verifyTrace(r *result, st *stack) {
	r.check(st.tw.Dropped() == 0, "trace writer dropped %d events", st.tw.Dropped())
	r.layer["trace.dropped"] = float64(st.tw.Dropped())
	data := st.tbuf.Bytes()
	t0 := time.Now()
	tr, err := trace.Read(bytes.NewReader(data))
	readNs := float64(time.Since(t0).Nanoseconds())
	r.check(err == nil, "read trace: %v", err)
	if err != nil {
		return
	}
	events := float64(len(tr.Events))
	r.layer["trace.bytes_per_event"] = float64(len(data)) / events
	r.layer["trace.read_ns_per_event"] = readNs / events
	t0 = time.Now()
	v, err := replay.Verify(tr)
	secs := time.Since(t0).Seconds()
	r.check(err == nil, "replay: %v", err)
	if err != nil {
		return
	}
	r.check(v.Match, "replay mismatch: %s", v.Mismatch)
	served := st.srv.GrantsServed()
	r.check(v.GrantsServed == served, "replay served %d grants, daemon %d", v.GrantsServed, served)
	holder := map[string]uint32{}
	overlaps := 0
	for _, ev := range tr.Events {
		h, held := holder[ev.Target]
		switch ev.Type {
		case trace.EvGrant:
			if held && h != ev.SID {
				overlaps++
			}
			holder[ev.Target] = ev.SID
		case trace.EvRevoke, trace.EvEnd, trace.EvUnregister:
			if held && h == ev.SID {
				delete(holder, ev.Target)
			}
		}
	}
	r.check(overlaps == 0, "trace shows %d grants to a target another application held", overlaps)
	r.layer["replay.events_per_s"] = events / secs
	r.printf("replay_events_per_s %11.1f 1/s  (%d events)", events/secs, len(tr.Events))
}

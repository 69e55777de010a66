package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"wlreviver"
	"wlreviver/internal/obs"
	"wlreviver/internal/rng"
	"wlreviver/internal/sim"
	"wlreviver/internal/trace"
)

// fleet_churn: an in-process wlserved. 64 devices of 4096 blocks cycle
// fig8/WL-Reviver and fig8/LLS over ocean and mg; only 16 stay resident,
// so most requests spill one device (checkpoint encode, fsync, rename)
// and reload another (decode, journal replay). Two closed-loop clients
// each own half the devices and pick among them with a seeded RNG; every
// fourth request is an explicit {"addrs":[…]} write, the rest
// {"count":4096}.
const (
	fleetDevices     = 64
	fleetBlocks      = 4096
	fleetResident    = 16
	fleetClients     = 2
	fleetAddrs       = 512 // addresses per explicit-address request
	fleetPrefix      = 64  // requests per client the model metrics cover
	fleetSetupReps   = 15
	fleetLedgerTurns = 256 // requests per client in each traced phase
)

var fleetStacks = []string{"fig8/WL-Reviver", "fig8/LLS"}

func deviceID(i int) string { return fmt.Sprintf("dev%02d", i) }

func fleetSpec(seed uint64, i int) wlreviver.DeviceSpec {
	return wlreviver.DeviceSpec{
		Stack:    fleetStacks[i%len(fleetStacks)],
		Blocks:   fleetBlocks,
		Seed:     subSeed(seed, uint64(i)),
		Workload: trace.Spec{Kind: benchTraces[(i/len(fleetStacks))%len(benchTraces)]},
	}
}

// fleetReq is one write request: a count request of reqWrites when
// addrs is nil, else an explicit-address request.
type fleetReq struct {
	dev   int
	addrs []uint64
}

// requestSource generates one client's seeded request stream.
type requestSource struct {
	src    *rng.Source
	client int
	n      int
}

func newRequestSource(seed uint64, client int) *requestSource {
	return &requestSource{src: rng.New(subSeed(seed, uint64(500+client))), client: client}
}

func (g *requestSource) next() fleetReq {
	per := fleetDevices / fleetClients
	r := fleetReq{dev: g.client*per + g.src.Intn(per)}
	if g.n%4 == 3 {
		r.addrs = make([]uint64, fleetAddrs)
		for i := range r.addrs {
			r.addrs[i] = g.src.Uint64n(fleetBlocks)
		}
	}
	g.n++
	return r
}

func (r fleetReq) writes() uint64 {
	if r.addrs == nil {
		return reqWrites
	}
	return uint64(len(r.addrs))
}

// clientLog is what one client sent and observed.
type clientLog struct {
	reqs   []fleetReq
	lat    []float64
	writes uint64
	errs   []error
}

// writer sends one request to a fleet, over HTTP or in process.
type writer interface {
	Write(ctx context.Context, id string, count uint64) (wlreviver.WriteResult, error)
	WriteAddrs(ctx context.Context, id string, addrs []uint64) (wlreviver.WriteResult, error)
}

// driveClients runs one closed-loop goroutine per client: each sends
// next(c)'s requests one at a time through w(c) until next reports
// false, timing every request.
func driveClients(w func(c int) writer, next func(c int, sent int) (fleetReq, bool)) []clientLog {
	logs := make([]clientLog, fleetClients)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cw := w(c)
			lg := &logs[c]
			ctx := context.Background()
			for {
				r, ok := next(c, len(lg.reqs))
				if !ok {
					return
				}
				t := time.Now()
				var wr wlreviver.WriteResult
				var err error
				if r.addrs == nil {
					wr, err = cw.Write(ctx, deviceID(r.dev), reqWrites)
				} else {
					wr, err = cw.WriteAddrs(ctx, deviceID(r.dev), r.addrs)
				}
				lg.lat = append(lg.lat, ms(time.Since(t)))
				lg.reqs = append(lg.reqs, r)
				if err == nil && wr.Done != r.writes() {
					err = fmt.Errorf("%s: %d of %d writes serviced", deviceID(r.dev), wr.Done, r.writes())
				}
				lg.errs = append(lg.errs, err)
				if err == nil {
					lg.writes += wr.Done
				}
			}
		}()
	}
	wg.Wait()
	return logs
}

// openFleet opens a syncing fleet in a fresh directory under dir and
// creates the 64 devices, returning it, its spill directory and the
// time that took.
func openFleet(dir string, seed uint64) (*wlreviver.Fleet, string, time.Duration, error) {
	fdir, err := os.MkdirTemp(dir, "fleet-")
	if err != nil {
		return nil, "", 0, err
	}
	t := time.Now()
	f, err := wlreviver.OpenFleet(wlreviver.FleetConfig{Dir: fdir, MaxResident: fleetResident})
	if err != nil {
		return nil, "", 0, err
	}
	for i := 0; i < fleetDevices; i++ {
		if err := f.Create(deviceID(i), fleetSpec(seed, i)); err != nil {
			f.Close()
			return nil, "", 0, err
		}
	}
	return f, fdir, time.Since(t), nil
}

// closeFleet closes f and removes its spill directory.
func closeFleet(f *wlreviver.Fleet, dir string) error {
	err := f.Close()
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

// serveFleet serves f's HTTP API on a loopback listener. stop shuts the
// server down and waits for it.
func serveFleet(f *wlreviver.Fleet) (base string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: wlreviver.NewFleetHandler(f)}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop = func() error {
		err := srv.Shutdown(context.Background())
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// httpClients returns a client factory giving each client its own
// connection, and a func closing them.
func httpClients(base string) (func(c int) writer, func()) {
	var mu sync.Mutex
	var transports []*http.Transport
	return func(int) writer {
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			mu.Lock()
			transports = append(transports, tr)
			mu.Unlock()
			return wlreviver.NewFleetClient(base, &http.Client{Transport: tr})
		}, func() {
			for _, tr := range transports {
				tr.CloseIdleConnections()
			}
		}
}

// standaloneDevice builds the sim.Engine a fleet device with spec runs:
// the same stack, geometry, seed, workload and metrics observer.
func standaloneDevice(spec wlreviver.DeviceSpec) (*sim.Engine, error) {
	st, err := sim.LookupDeviceStack(spec.Stack)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	cfg.ECC, cfg.Leveler, cfg.Protector = st.ECC, st.Leveler, st.Protector
	cfg.FreepReserveFraction = st.FreepReserveFraction
	cfg.Blocks = spec.Blocks
	cfg.Seed = spec.Seed
	cfg.Observer = obs.NewMetrics()
	gen, err := trace.NewFromSpec(trace.Spec{
		Kind: spec.Workload.Kind, Blocks: cfg.Blocks, PageBlocks: cfg.BlocksPerPage, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return sim.NewEngine(cfg, gen)
}

// apply services r on a standalone engine exactly as the fleet does.
func apply(e *sim.Engine, r fleetReq) {
	if r.addrs == nil {
		e.RunN(reqWrites)
		return
	}
	for _, a := range r.addrs {
		if !e.WriteTagged(a, e.Writes()) {
			return
		}
	}
}

// replayStandalone replays the clients' logs on standalone engines:
// first each client's first prefix requests (reporting the pooled model
// metrics there), then the rest. It returns the engines and the time
// each request took.
func replayStandalone(seed uint64, logs []clientLog, prefix int) (engines []*sim.Engine, accPerReq, wpb float64, lat []float64, err error) {
	engines = make([]*sim.Engine, fleetDevices)
	for i := range engines {
		if engines[i], err = standaloneDevice(fleetSpec(seed, i)); err != nil {
			return nil, 0, 0, nil, err
		}
	}
	replay := func(lo, hi int) {
		for _, lg := range logs {
			for _, r := range lg.reqs[min(lo, len(lg.reqs)):min(hi, len(lg.reqs))] {
				t := time.Now()
				apply(engines[r.dev], r)
				lat = append(lat, ms(time.Since(t)))
			}
		}
	}
	replay(0, prefix)
	var req, acc, writes uint64
	for _, e := range engines {
		q, a := e.RequestCounts()
		req, acc, writes = req+q, acc+a, writes+e.Writes()
	}
	replay(prefix, math.MaxInt)
	return engines, float64(acc) / float64(req), float64(writes) / float64(fleetDevices*fleetBlocks), lat, nil
}

// checkFleet gates every device's fleet checkpoint against its
// standalone replay, returning the median Fleet.Checkpoint latency.
func checkFleet(rep *report, f *wlreviver.Fleet, engines []*sim.Engine, label string) float64 {
	var lat []float64
	for i, e := range engines {
		t := time.Now()
		img, err := f.Checkpoint(context.Background(), deviceID(i))
		lat = append(lat, ms(time.Since(t)))
		if err != nil {
			rep.op(fmt.Errorf("%s: checkpoint %s: %w", label, deviceID(i), err))
			continue
		}
		want, err := e.Checkpoint()
		if err != nil {
			rep.op(err)
			continue
		}
		rep.gate(digest(img) == digest(want), "%s: device %s checkpoint differs from its standalone engine", label, deviceID(i))
	}
	return median(lat)
}

func countOps(rep *report, logs []clientLog) (lat []float64, requests int, writes uint64) {
	for _, lg := range logs {
		for _, err := range lg.errs {
			rep.op(err)
		}
		lat = append(lat, lg.lat...)
		requests += len(lg.reqs)
		writes += lg.writes
	}
	return lat, requests, writes
}

func runFleetChurn(seed uint64, dur time.Duration, dir string) (*report, error) {
	rep := newReport(endToEnd)
	var setup []float64
	var f *wlreviver.Fleet
	for r := fleetSetupReps - 1; r >= 0; r-- {
		s := seed
		if r > 0 {
			s = subSeed(seed, uint64(1000+r))
		}
		releaseMemory()
		ff, fdir, d, err := openFleet(dir, s)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
		if r > 0 {
			if err := closeFleet(ff, fdir); err != nil {
				return nil, err
			}
			continue
		}
		f = ff
	}
	rep.set("setup_s", median(setup))
	runtime.GC() // set-up's garbage, off the clock

	base, stop, err := serveFleet(f)
	if err != nil {
		return nil, err
	}
	clients, closeClients := httpClients(base)
	sources := make([]*requestSource, fleetClients)
	for c := range sources {
		sources[c] = newRequestSource(seed, c)
	}
	start := time.Now()
	deadline := start.Add(dur)
	logs := driveClients(clients, func(c, sent int) (fleetReq, bool) {
		if sent >= fleetPrefix && !time.Now().Before(deadline) {
			return fleetReq{}, false
		}
		return sources[c].next(), true
	})
	wall := time.Since(start).Seconds()
	closeClients()
	if err := stop(); err != nil {
		return nil, err
	}

	lat, requests, writes := countOps(rep, logs)
	rep.set("req_per_s", float64(requests)/wall)
	rep.set("sim_writes_per_s", float64(writes)/wall)
	rep.set("req_p50_ms", quantile(lat, 0.50))
	rep.set("req_p99_ms", quantile(lat, 0.99))

	engines, accPerReq, wpb, _, err := replayStandalone(seed, logs, fleetPrefix)
	if err != nil {
		return nil, err
	}
	rep.set("sim_accesses_per_request", accPerReq)
	rep.set("sim_lifetime_wpb", wpb)
	checkFleet(rep, f, engines, "fleet_churn")
	rep.op(f.Close())
	rep.note("setup_reps_s=%v requests=%d latency_samples=%d wall_s=%.3f", setup, requests, len(lat), wall)
	return rep, nil
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/lls"
	"wlreviver/internal/mc"
	"wlreviver/internal/obs"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/pcm"
	"wlreviver/internal/reviver"
	"wlreviver/internal/sim"
	"wlreviver/internal/trace"
	"wlreviver/internal/wear"
)

// perLayer lists the traced run's metrics. Each is measured in the
// configuration of one workload (METRICS.md maps every metric to its
// workload and the end-to-end metric it should move); BENCHMARK.json
// repeats the list (a test keeps the two equal).
var perLayer = []metricDef{
	// chip1gb_healthy: set-up, shard pool, and Shard(0) run standalone.
	{"trace.setup_s", "s"},
	{"sim.engine_setup_s", "s"},
	{"sim.shard_pool_efficiency", "ratio"},
	{"trace.ns_per_write", "ns"},
	{"osmodel.ns_per_write", "ns"},
	{"protector.ns_per_write.WLR.healthy", "ns"},
	{"reviver.resume_ns_per_write.healthy", "ns"},
	{"wear.ns_per_write.SG", "ns"},
	{"wear.map_ns.SG", "ns"},
	{"sim.unattributed_ns_per_write.healthy", "ns"},
	{"sim.tracing_overhead_ratio.healthy", "ratio"},
	{"sim.clock_read_ns", "ns"},
	{"pcm.accesses_per_write.healthy", "accesses/write"},
	// failure_ladder: Start-Gap × {WLR, LLS, FREE-p(10%)} on mg and ocean.
	{"trace.ns_per_write.failure", "ns"},
	{"osmodel.ns_per_write.failure", "ns"},
	{"protector.ns_per_write.WLR", "ns"},
	{"protector.ns_per_write.LLS", "ns"},
	{"protector.ns_per_write.FREE-p", "ns"},
	{"reviver.resume_ns_per_write", "ns"},
	{"wear.ns_per_write.SG.failure", "ns"},
	{"sim.unattributed_ns_per_write", "ns"},
	{"sim.tracing_overhead_ratio", "ratio"},
	{"pcm.accesses_per_write.SG-WLR", "accesses/write"},
	{"pcm.accesses_per_write.SG-LLS", "accesses/write"},
	{"pcm.accesses_per_write.SG-FREE-p", "accesses/write"},
	{"protector.accesses_per_request.SG-WLR", "accesses/req"},
	{"protector.accesses_per_request.SG-LLS", "accesses/req"},
	{"protector.accesses_per_request.SG-FREE-p", "accesses/req"},
	{"reviver.maintenance_accesses_per_write", "accesses/write"},
	{"reviver.links_created", "count"},
	{"reviver.chain_switches", "count"},
	{"reviver.suspensions", "count"},
	{"reviver.pages_acquired", "count"},
	{"lls.shift_writes", "count"},
	{"lls.chunks_reserved", "count"},
	{"osmodel.retired_pages", "count"},
	{"cache.hit_ratio", "ratio"},
	{"ckpt.save_ms", "ms"},
	{"ckpt.restore_ms", "ms"},
	{"ckpt.image_kb", "KB"},
	// The related-work levelers: {SR, SG-R, WFR, SW} × WLR on mg and
	// ocean, at failure_ladder's geometry and stop rule.
	{"wear.ns_per_write.SR", "ns"},
	{"wear.ns_per_write.SG-R", "ns"},
	{"wear.ns_per_write.WFR", "ns"},
	{"wear.ns_per_write.SW", "ns"},
	{"wear.map_ns.SR", "ns"},
	{"wear.map_ns.SG-R", "ns"},
	{"wear.map_ns.WFR", "ns"},
	{"wear.map_ns.SW", "ns"},
	{"protector.ns_per_write.WLR.revival", "ns"},
	{"pcm.accesses_per_write.SR-WLR", "accesses/write"},
	{"pcm.accesses_per_write.SG-R-WLR", "accesses/write"},
	{"pcm.accesses_per_write.WFR-WLR", "accesses/write"},
	{"pcm.accesses_per_write.SW-WLR", "accesses/write"},
	{"protector.accesses_per_request.SR-WLR", "accesses/req"},
	{"protector.accesses_per_request.SG-R-WLR", "accesses/req"},
	{"protector.accesses_per_request.WFR-WLR", "accesses/req"},
	{"protector.accesses_per_request.SW-WLR", "accesses/req"},
	{"sim.unattributed_ns_per_write.revival", "ns"},
	{"sim.tracing_overhead_ratio.revival", "ratio"},
	// fleet_churn: the same request sequence over HTTP, in process and
	// on standalone engines.
	{"serve.fleet_write_ms.p50", "ms"},
	{"serve.fleet_write_ms.p99", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.engine_ms_per_request", "ms"},
	{"serve.checkpoint_ms", "ms"},
	{"serve.spill_bytes", "bytes"},
	{"host.fsync_ms", "ms"},
}

// ---- the layered driver -----------------------------------------------------

// The layers the driver times, one child span each per batch.
const (
	layerTrace = iota
	layerOS
	layerProt
	layerResume
	layerWear
	numLayers
)

// addrBatch is the engine's address-prefetch chunk; the driver pulls
// addresses in the same chunks, and each chunk is one batch span.
const addrBatch = 512

// layerSpan is the summed time and call count of one layer's calls
// within a batch.
type layerSpan struct {
	ns    int64
	calls int32
}

func (s *layerSpan) add(ns int64) {
	s.ns += ns
	s.calls++
}

// batchSpan is the parent span of one addrBatch-address batch (start to
// the next batch's start, ns since the driver's epoch) with one child
// span per layer. Keeping per-batch sums rather than per-call spans
// keeps a whole lifetime's trace in memory.
type batchSpan struct {
	start, end int64
	layers     [numLayers]layerSpan
}

// layered replays sim.Engine's write path from outside the engine, one
// public layer call at a time — NextBatch → OS().Translate →
// Protector().Write (retrying at the fresh translation) →
// Reviver().ResumePending → Leveler().NoteWrite — and times each call.
// Driven over an engine built like an untraced one, it leaves the
// engine's layers in the identical state (TestLayeredMatchesRunN).
type layered struct {
	gen      trace.BatchGenerator
	os       *osmodel.Model
	prot     mc.Protector
	rev      *reviver.Reviver
	lv       wear.Leveler
	crip     mc.Crippler
	llsStack bool
	maxRetry int

	buf     []uint64
	pos     int
	writes  uint64
	stopped bool

	epoch  time.Time
	spans  []batchSpan
	pas    []uint64 // prefix of the PA stream, for the isolated Map replay
	maxPAs int
}

// newLayered drives e's layers with addresses from gen, which must be a
// fresh generator identical to the one e was built with (e's own is
// never consumed). It captures up to maxPAs translated addresses.
func newLayered(e *sim.Engine, gen trace.BatchGenerator, maxPAs int) *layered {
	d := &layered{
		gen: gen, os: e.OS(), prot: e.Protector(), lv: e.Leveler(),
		maxRetry: int(e.OS().NumPages()) + 2,
		buf:      make([]uint64, 0, addrBatch),
		epoch:    time.Now(),
		maxPAs:   maxPAs,
	}
	d.rev, _ = e.Reviver()
	d.crip, _ = d.prot.(mc.Crippler)
	_, d.llsStack = d.prot.(*lls.LLS)
	return d
}

func (d *layered) now() int64 { return int64(time.Since(d.epoch)) }

// refill closes the open batch span, opens the next and times the
// generator's batch.
func (d *layered) refill() {
	t := d.now()
	if n := len(d.spans); n > 0 {
		d.spans[n-1].end = t
	}
	d.buf = d.buf[:addrBatch]
	d.gen.NextBatch(d.buf)
	d.pos = 0
	sp := batchSpan{start: t}
	sp.layers[layerTrace].add(d.now() - t)
	d.spans = append(d.spans, sp)
}

// write services the next workload write; false means the memory can
// accept no more writes. Within a write each layer's span starts where
// the previous one ended, so a write costs one clock read per layer
// call plus one.
func (d *layered) write() bool {
	if d.pos == len(d.buf) {
		d.refill()
	}
	v := d.buf[d.pos]
	d.pos++
	sp := &d.spans[len(d.spans)-1]
	var pa uint64
	t := d.now()
	for attempt := 0; ; attempt++ {
		if attempt > d.maxRetry {
			d.stopped = true
			return false
		}
		var ok bool
		pa, ok = d.os.Translate(v)
		t1 := d.now()
		sp.layers[layerOS].add(t1 - t)
		if !ok {
			d.stopped = true
			return false
		}
		retry := d.prot.Write(pa, d.writes).Retry
		t = d.now()
		sp.layers[layerProt].add(t - t1)
		if !retry {
			break
		}
	}
	d.writes++
	if d.rev != nil {
		d.rev.ResumePending()
		t1 := d.now()
		sp.layers[layerResume].add(t1 - t)
		t = t1
	}
	if d.crip == nil || !d.crip.Crippled() {
		d.lv.NoteWrite(pa, d.prot)
		sp.layers[layerWear].add(d.now() - t)
	} else if d.llsStack {
		d.stopped = true
	}
	if len(d.pas) < d.maxPAs {
		d.pas = append(d.pas, pa)
	}
	return true
}

// run services up to n writes, as Engine.RunN does.
func (d *layered) run(n uint64) uint64 {
	var done uint64
	for done < n && !d.stopped && d.write() {
		done++
	}
	return done
}

// runLife drives the layers of the engine owning dev to the shared stop
// rule, as runRound drives the engine.
func (d *layered) runLife(dev *pcm.Device) {
	for !lifeDone(float64(dev.DeadBlocks())/float64(dev.NumBlocks()), d.writes) {
		if d.run(reqWrites) < reqWrites {
			break
		}
	}
	d.finish()
}

// finish closes the last batch span.
func (d *layered) finish() {
	if n := len(d.spans); n > 0 && d.spans[n-1].end == 0 {
		d.spans[n-1].end = d.now()
	}
}

// layerSums aggregates traced runs: writes, the batch spans' total and
// each layer's total. Each layer span includes about one clock read
// (sim.clock_read_ns), so a layer whose own work is nearly free reads as
// about one clock read.
type layerSums struct {
	writes     uint64
	batchNs    int64
	untracedNs int64 // the same writes, untraced
	ns         [numLayers]int64
}

func (s *layerSums) addDriver(d *layered, untraced time.Duration) {
	s.writes += d.writes
	s.untracedNs += int64(untraced)
	for _, sp := range d.spans {
		s.batchNs += sp.end - sp.start
		for l, ls := range sp.layers {
			s.ns[l] += ls.ns
		}
	}
}

// clockReadNs measures one layered.now() call: the median over five
// passes of 2^17 back-to-back reads.
func clockReadNs() float64 {
	d := &layered{epoch: time.Now()}
	var passes []float64
	for i := 0; i < 5; i++ {
		const n = 1 << 17
		start := d.now()
		var sink int64
		for j := 0; j < n; j++ {
			sink += d.now()
		}
		passes = append(passes, float64(d.now()-start)/n)
		mapSink.Add(uint64(sink))
	}
	return median(passes)
}

func (s *layerSums) perWrite(layer int) float64 { return float64(s.ns[layer]) / float64(s.writes) }

// unattributed is the traced time no layer span covers, per write: the
// driver's own loop between spans.
func (s *layerSums) unattributed() float64 {
	rest := s.batchNs
	for _, ns := range s.ns {
		rest -= ns
	}
	return float64(rest) / float64(s.writes)
}

func (s *layerSums) overhead() float64 { return float64(s.batchNs) / float64(s.untracedNs) }

// mapNs replays Map over the captured PA stream on lv's final state and
// returns the median ns per call over three passes.
func mapNs(lv wear.Leveler, pas []uint64) float64 {
	var sink uint64
	var passes []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		for _, pa := range pas {
			sink ^= lv.Map(pa)
		}
		passes = append(passes, float64(time.Since(t))/float64(len(pas)))
	}
	mapSink.Store(sink)
	return median(passes)
}

// mapSink keeps the Map replay's results live.
var mapSink atomic.Uint64

// layerDigest hashes the state of e's device, leveler, OS model and
// protector — everything the layered driver mutates.
func layerDigest(e *sim.Engine) (string, error) {
	type saver interface{ SaveState(*ckpt.Encoder) }
	enc := ckpt.NewEncoder()
	parts := []struct {
		name string
		v    any
	}{{"device", e.Device()}, {"leveler", e.Leveler()}, {"os", e.OS()}, {"protector", e.Protector()}}
	for _, p := range parts {
		s, ok := p.v.(saver)
		if !ok {
			return "", fmt.Errorf("%s layer does not checkpoint", p.name)
		}
		enc.Begin(p.name)
		s.SaveState(enc)
		enc.End()
	}
	return digest(enc.Finish()), nil
}

// sameLayers reports how the traced engine t differs from the untraced
// engine u after the same writes, or nil.
func sameLayers(u, t *sim.Engine, tracedWrites uint64) error {
	if u.Writes() != tracedWrites {
		return fmt.Errorf("untraced ran %d writes, traced %d", u.Writes(), tracedWrites)
	}
	ur, ua := u.RequestCounts()
	tr, ta := t.RequestCounts()
	if ur != tr || ua != ta {
		return fmt.Errorf("request counts %d/%d untraced, %d/%d traced", ur, ua, tr, ta)
	}
	if u.Device().Stats() != t.Device().Stats() {
		return fmt.Errorf("PCM access counts differ")
	}
	if !bytes.Equal(u.OS().Bitmap(), t.OS().Bitmap()) {
		return fmt.Errorf("OS retirement bitmaps differ")
	}
	ud, err := layerDigest(u)
	if err != nil {
		return err
	}
	td, err := layerDigest(t)
	if err != nil {
		return err
	}
	if ud != td {
		return fmt.Errorf("layer state digest %s untraced, %s traced", ud, td)
	}
	return nil
}

// ---- the ledger ---------------------------------------------------------------

// runLedger is the traced run: the layer ledger of every workload's
// configuration, each measured from outside the program.
func runLedger(seed uint64, dir string, fsyncMs float64) (*report, error) {
	rep := newReport(perLayer)
	rep.set("host.fsync_ms", fsyncMs)
	rep.note("dropped: leveler_revival as an untraced workload; its host cost spread 30-34%% between seeds, above the 0.25 largest bound (METRICS.md). Its four levelers are traced below.")
	rep.note("dropped: nothing else; reviver.suspensions is 0 at the 30%% stop rule, where WL-Reviver never runs short of spares")
	rep.set("sim.clock_read_ns", clockReadNs())
	if err := ledgerHealthy(rep, seed); err != nil {
		return nil, fmt.Errorf("chip1gb_healthy ledger: %w", err)
	}
	releaseMemory()
	if err := ledgerFailure(rep, seed); err != nil {
		return nil, fmt.Errorf("failure ledger: %w", err)
	}
	if err := ledgerFleet(rep, seed, dir); err != nil {
		return nil, fmt.Errorf("fleet_churn ledger: %w", err)
	}
	return rep, nil
}

// Healthy-ledger sizes: the chip prefix timed at pool 2 and pool 1, and
// the standalone Shard(0) runs (its share of chipBudget).
const (
	chipPrefix   = chipBudget / 2
	shardWrites  = chipBudget / chipGrid
	shardRepeats = 3
)

// timeChipPrefix runs se to chipPrefix writes and returns the time it took.
func timeChipPrefix(se *sim.ShardedEngine) (time.Duration, error) {
	var busy time.Duration
	for se.Writes() < chipPrefix {
		t := time.Now()
		n := se.RunN(chipRequest)
		busy += time.Since(t)
		if n < chipRequest {
			return 0, errStopped
		}
	}
	return busy, nil
}

func ledgerHealthy(rep *report, seed uint64) error {
	releaseMemory()
	t := time.Now()
	se, genT, err := buildChip(seed, simWorkers)
	if err != nil {
		return err
	}
	total := time.Since(t)
	rep.set("trace.setup_s", genT.Seconds())
	rep.set("sim.engine_setup_s", (total - genT).Seconds())
	rep.note("chip1gb_healthy set-up %.3fs, %.1f%% of it in trace.NewBenchmark", total.Seconds(), 100*genT.Seconds()/total.Seconds())

	t2, err := timeChipPrefix(se)
	if err != nil {
		return err
	}
	img, err := se.Shard(0).Checkpoint()
	if err != nil {
		return err
	}
	shard0 := digest(img)
	req2, acc2 := se.RequestCounts()
	releaseMemory()

	se1, _, err := buildChip(seed, 1)
	if err != nil {
		return err
	}
	t1, err := timeChipPrefix(se1)
	if err != nil {
		return err
	}
	img, err = se1.Shard(0).Checkpoint()
	if err != nil {
		return err
	}
	req1, acc1 := se1.RequestCounts()
	rep.gate(digest(img) == shard0 && req1 == req2 && acc1 == acc2, "chip1gb_healthy: pool 1 and pool 2 chips differ")
	rep.set("sim.shard_pool_efficiency", t1.Seconds()/t2.Seconds()/simWorkers)
	releaseMemory()

	// Shard(0) standalone, untraced and traced, for its share of the
	// budget; at the prefix point it must be the chip's shard 0.
	cfg := chipConfig(seed)
	cfg.Blocks /= chipGrid
	cfg.Seed = trace.ShardSeed(seed, 0)
	cfg.LLSChunkPages = max(1, cfg.LLSChunkPages/chipGrid)
	newGen := func() (*trace.Weighted, error) {
		return trace.NewBenchmark(chipTrace, cfg.Blocks, cfg.BlocksPerPage, cfg.Seed)
	}
	var stats []layerSums
	var mapTimes, accPerWrite []float64
	for r := 0; r < shardRepeats; r++ {
		gu, err := newGen()
		if err != nil {
			return err
		}
		u, err := sim.NewEngine(cfg, gu)
		if err != nil {
			return err
		}
		var untraced time.Duration
		for u.Writes() < shardWrites {
			t := time.Now()
			u.RunN(reqWrites)
			untraced += time.Since(t)
			if u.Writes() == chipPrefix/chipGrid && r == 0 {
				img, err := u.Checkpoint()
				if err != nil {
					return err
				}
				rep.gate(digest(img) == shard0, "chip1gb_healthy: standalone Shard(0) differs from the chip's shard 0")
			}
		}
		gt, err := newGen()
		if err != nil {
			return err
		}
		gt2, err := newGen()
		if err != nil {
			return err
		}
		te, err := sim.NewEngine(cfg, gt)
		if err != nil {
			return err
		}
		d := newLayered(te, gt2, shardWrites)
		for d.writes < shardWrites && d.run(reqWrites) == reqWrites {
		}
		d.finish()
		rep.op(sameLayers(u, te, d.writes))
		var s layerSums
		s.addDriver(d, untraced)
		stats = append(stats, s)
		mapTimes = append(mapTimes, mapNs(te.Leveler(), d.pas))
		accPerWrite = append(accPerWrite, float64(te.Device().Stats().Total())/float64(d.writes))
	}
	med := func(f func(s *layerSums) float64) float64 {
		var xs []float64
		for i := range stats {
			xs = append(xs, f(&stats[i]))
		}
		return median(xs)
	}
	rep.set("trace.ns_per_write", med(func(s *layerSums) float64 { return s.perWrite(layerTrace) }))
	rep.set("osmodel.ns_per_write", med(func(s *layerSums) float64 { return s.perWrite(layerOS) }))
	rep.set("protector.ns_per_write.WLR.healthy", med(func(s *layerSums) float64 { return s.perWrite(layerProt) }))
	rep.set("reviver.resume_ns_per_write.healthy", med(func(s *layerSums) float64 { return s.perWrite(layerResume) }))
	rep.set("wear.ns_per_write.SG", med(func(s *layerSums) float64 { return s.perWrite(layerWear) }))
	rep.set("sim.unattributed_ns_per_write.healthy", med((*layerSums).unattributed))
	rep.set("sim.tracing_overhead_ratio.healthy", med((*layerSums).overhead))
	rep.set("wear.map_ns.SG", median(mapTimes))
	rep.set("pcm.accesses_per_write.healthy", median(accPerWrite))
	return nil
}

// tracedLife is one bench-geometry engine run to the stop rule twice:
// untraced through RunN, and traced through the layered driver.
type tracedLife struct {
	es       engineSpec
	sums     layerSums
	mapNs    float64
	pcmAcc   uint64
	req, acc uint64
	rev      reviver.Stats
	lls      lls.Stats
	retired  uint64
	hits     uint64
	misses   uint64
	ckpt     []float64 // save ms, restore ms, image KB (ladder only)
	digest   string    // the untraced engine's final Checkpoint()
	err      error
}

// pinKey names es's pinned digest: failure_ladder's for its stacks,
// "revival/" for the related-work levelers.
func pinKey(es engineSpec) string {
	if es.st.lv == sim.LevelerStartGap {
		return "failure_ladder/" + es.key()
	}
	return "revival/" + es.key()
}

// traceLife runs es untraced, then traced, on fresh chips from seed,
// gates the two states equal and collects the layer ledger; ladder also
// times the final engine's checkpoint and restore and counts its
// remap-cache hits. Both timed engines run unobserved, as the untraced
// workloads do, so no observer dispatch lands in any ledger time.
func traceLife(es engineSpec, seed uint64, ladder bool) tracedLife {
	out := tracedLife{es: es}
	cfg := benchConfig(es.st, seed)
	u, err := buildBench(es, cfg)
	if err != nil {
		out.err = err
		return out
	}
	var untraced time.Duration
	for !lifeDone(u.DeadFraction(), u.Writes()) {
		t := time.Now()
		n := u.RunN(reqWrites)
		untraced += time.Since(t)
		if n < reqWrites {
			break
		}
	}

	img, err := u.Checkpoint()
	if err != nil {
		out.err = err
		return out
	}
	out.digest = digest(img)

	te, err := buildBench(es, cfg)
	if err != nil {
		out.err = err
		return out
	}
	gen, err := trace.NewBenchmark(es.workload, cfg.Blocks, cfg.BlocksPerPage, cfg.Seed)
	if err != nil {
		out.err = err
		return out
	}
	d := newLayered(te, gen, 1<<20)
	d.runLife(te.Device())
	if out.err = sameLayers(u, te, d.writes); out.err != nil {
		out.err = fmt.Errorf("%s: traced state differs from untraced: %w", es.key(), out.err)
		return out
	}
	out.sums.addDriver(d, untraced)
	out.mapNs = mapNs(te.Leveler(), d.pas)
	out.pcmAcc = te.Device().Stats().Total()
	out.req, out.acc = te.RequestCounts()
	if r, ok := te.Reviver(); ok {
		out.rev = r.Stats()
	}
	if l, ok := te.Protector().(*lls.LLS); ok {
		out.lls = l.Stats()
	}
	out.retired = te.OS().RetiredPages()
	if ladder {
		if out.ckpt, out.err = timeCheckpoint(es, cfg, u); out.err == nil {
			out.hits, out.misses, out.err = cacheCounts(es, cfg, u)
		}
	}
	return out
}

// cacheCounts reruns u's lifetime, off the clock, on a fresh engine with
// an obs.Metrics observer (the only public source of the remap cache's
// counts), gates its layer state equal to u's and returns its remap-cache
// hits and misses.
func cacheCounts(es engineSpec, cfg sim.Config, u *sim.Engine) (hits, misses uint64, err error) {
	cfg.Observer = obs.NewMetrics()
	e, err := buildBench(es, cfg)
	if err != nil {
		return 0, 0, err
	}
	for !lifeDone(e.DeadFraction(), e.Writes()) && e.RunN(reqWrites) == reqWrites {
	}
	if err := sameLayers(u, e, e.Writes()); err != nil {
		return 0, 0, fmt.Errorf("%s: observed state differs from unobserved: %w", es.key(), err)
	}
	m, _ := e.Metrics()
	return m.Counter(obs.CounterRemapCacheHit), m.Counter(obs.CounterRemapCacheMiss), nil
}

// timeCheckpoint times Checkpoint and RestoreCheckpoint of u's final
// state (median of three each) and checks the restored image.
func timeCheckpoint(es engineSpec, cfg sim.Config, u *sim.Engine) ([]float64, error) {
	var save, restore []float64
	var img []byte
	for i := 0; i < 3; i++ {
		t := time.Now()
		var err error
		if img, err = u.Checkpoint(); err != nil {
			return nil, err
		}
		save = append(save, ms(time.Since(t)))
		fresh, err := buildBench(es, cfg)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		if err := fresh.RestoreCheckpoint(img); err != nil {
			return nil, err
		}
		restore = append(restore, ms(time.Since(t)))
		again, err := fresh.Checkpoint()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(again, img) {
			return nil, fmt.Errorf("%s: restored engine re-checkpoints differently", es.key())
		}
	}
	return []float64{median(save), median(restore), float64(len(img)) / 1024}, nil
}

// ledgerFailure traces failure_ladder's six engines and the four
// related-work levelers under WL-Reviver on two workers, longest jobs
// first.
func ledgerFailure(rep *report, seed uint64) error {
	jobs := append(specsOf(revivalStacks, benchTraces), specsOf(ladderStacks, benchTraces)...)
	outs := make([]tracedLife, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				outs[i] = traceLife(jobs[i], seed, jobs[i].st.lv == sim.LevelerStartGap)
			}
		}()
	}
	wg.Wait()

	var ladder, revival layerSums
	byProt, byLv := map[string]*layerSums{}, map[string]*layerSums{}
	mapByLv := map[string][]float64{}
	var revStats reviver.Stats
	var llsStats lls.Stats
	var retired, hits, misses, revWrites uint64
	var ckptCols [3][]float64
	pcm := map[string][2]uint64{} // stack → {accesses, writes}
	reqs := map[string][2]uint64{}
	for _, o := range outs {
		rep.op(o.err)
		if o.err != nil {
			continue
		}
		checkPin(rep, pinKey(o.es), o.digest, seed)
		rep.note("digest %s %s", pinKey(o.es), o.digest)
		key := o.es.st.String()
		p, q := pcm[key], reqs[key]
		pcm[key] = [2]uint64{p[0] + o.pcmAcc, p[1] + o.sums.writes}
		reqs[key] = [2]uint64{q[0] + o.acc, q[1] + o.req}
		if lv := o.es.st.lv.String(); o.es.st.lv != sim.LevelerStartGap {
			revival.add(o.sums)
			if byLv[lv] == nil {
				byLv[lv] = &layerSums{}
			}
			byLv[lv].add(o.sums)
			mapByLv[lv] = append(mapByLv[lv], o.mapNs)
			continue
		}
		ladder.add(o.sums)
		prot := o.es.st.prot.String()
		if byProt[prot] == nil {
			byProt[prot] = &layerSums{}
		}
		byProt[prot].add(o.sums)
		if o.es.st.prot == sim.ProtectorWLReviver {
			revWrites += o.sums.writes
			revStats.MaintenanceAccesses += o.rev.MaintenanceAccesses
			revStats.LinksCreated += o.rev.LinksCreated
			revStats.ChainSwitches += o.rev.ChainSwitches
			revStats.Suspensions += o.rev.Suspensions
			revStats.PagesAcquired += o.rev.PagesAcquired
		}
		llsStats.ShiftWrites += o.lls.ShiftWrites
		llsStats.ChunksReserved += o.lls.ChunksReserved
		retired += o.retired
		hits += o.hits
		misses += o.misses
		for i, v := range o.ckpt {
			ckptCols[i] = append(ckptCols[i], v)
		}
	}
	for lv, s := range byLv {
		rep.set("wear.ns_per_write."+lv, s.perWrite(layerWear))
		rep.set("wear.map_ns."+lv, median(mapByLv[lv]))
	}
	rep.set("trace.ns_per_write.failure", ladder.perWrite(layerTrace))
	rep.set("osmodel.ns_per_write.failure", ladder.perWrite(layerOS))
	for prot, s := range byProt {
		rep.set("protector.ns_per_write."+prot, s.perWrite(layerProt))
	}
	if s := byProt["WLR"]; s != nil {
		rep.set("reviver.resume_ns_per_write", s.perWrite(layerResume))
	}
	rep.set("wear.ns_per_write.SG.failure", ladder.perWrite(layerWear))
	rep.set("sim.unattributed_ns_per_write", ladder.unattributed())
	rep.set("sim.tracing_overhead_ratio", ladder.overhead())
	for key, v := range pcm {
		rep.set("pcm.accesses_per_write."+key, float64(v[0])/float64(v[1]))
	}
	for key, v := range reqs {
		rep.set("protector.accesses_per_request."+key, float64(v[0])/float64(v[1]))
	}
	rep.set("reviver.maintenance_accesses_per_write", float64(revStats.MaintenanceAccesses)/float64(revWrites))
	rep.set("reviver.links_created", float64(revStats.LinksCreated))
	rep.set("reviver.chain_switches", float64(revStats.ChainSwitches))
	rep.set("reviver.suspensions", float64(revStats.Suspensions))
	rep.set("reviver.pages_acquired", float64(revStats.PagesAcquired))
	rep.set("lls.shift_writes", float64(llsStats.ShiftWrites))
	rep.set("lls.chunks_reserved", float64(llsStats.ChunksReserved))
	rep.set("osmodel.retired_pages", float64(retired))
	rep.set("cache.hit_ratio", float64(hits)/float64(hits+misses))
	rep.set("ckpt.save_ms", median(ckptCols[0]))
	rep.set("ckpt.restore_ms", median(ckptCols[1]))
	rep.set("ckpt.image_kb", median(ckptCols[2]))
	rep.set("protector.ns_per_write.WLR.revival", revival.perWrite(layerProt))
	rep.set("sim.unattributed_ns_per_write.revival", revival.unattributed())
	rep.set("sim.tracing_overhead_ratio.revival", revival.overhead())
	return nil
}

func (s *layerSums) add(o layerSums) {
	s.writes += o.writes
	s.batchNs += o.batchNs
	s.untracedNs += o.untracedNs
	for l := range s.ns {
		s.ns[l] += o.ns[l]
	}
}

// ledgerFleet sends one fixed request sequence (fleetLedgerTurns per
// client) to four fresh fleets, alternating HTTP and in process so that
// drift in the host's speed falls on both, then to standalone engines.
// Every fleet's devices must end equal to the standalone engines.
func ledgerFleet(rep *report, seed uint64, dir string) error {
	sources := make([]*requestSource, fleetClients)
	for c := range sources {
		sources[c] = newRequestSource(seed, c)
	}
	var script []clientLog // the sequence, recorded by the first phase
	var httpLat, inLat, ckptLat []float64
	var spill int64
	var engines []*sim.Engine
	for phase := 0; phase < 4; phase++ {
		f, fdir, _, err := openFleet(dir, seed)
		if err != nil {
			return err
		}
		next := func(c, sent int) (fleetReq, bool) {
			if script == nil {
				return sources[c].next(), sent < fleetLedgerTurns
			}
			if sent >= len(script[c].reqs) {
				return fleetReq{}, false
			}
			return script[c].reqs[sent], true
		}
		var logs []clientLog
		if phase%2 == 0 {
			base, stop, err := serveFleet(f)
			if err != nil {
				return err
			}
			clients, closeClients := httpClients(base)
			logs = driveClients(clients, next)
			closeClients()
			if err := stop(); err != nil {
				return err
			}
		} else {
			logs = driveClients(func(int) writer { return f }, next)
		}
		lat, _, _ := countOps(rep, logs)
		if phase%2 == 0 {
			httpLat = append(httpLat, lat...)
		} else {
			inLat = append(inLat, lat...)
		}
		if script == nil {
			script = logs
			var engLat []float64
			if engines, _, _, engLat, err = replayStandalone(seed, script, fleetPrefix); err != nil {
				return err
			}
			rep.set("serve.engine_ms_per_request", median(engLat))
		}
		if phase == 1 {
			if spill, err = dirBytes(fdir); err != nil {
				return err
			}
		}
		c := checkFleet(rep, f, engines, fmt.Sprintf("fleet ledger phase %d", phase))
		if phase%2 == 1 {
			ckptLat = append(ckptLat, c)
		}
		rep.op(closeFleet(f, fdir))
	}
	httpP50, inP50 := quantile(httpLat, 0.5), quantile(inLat, 0.5)
	rep.set("serve.fleet_write_ms.p50", inP50)
	rep.set("serve.fleet_write_ms.p99", quantile(inLat, 0.99))
	rep.set("serve.http_overhead_ms", httpP50-inP50)
	rep.set("serve.spill_bytes", float64(spill))
	rep.set("serve.checkpoint_ms", median(ckptLat))
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, de os.DirEntry, err error) error {
		if err != nil || !de.Type().IsRegular() {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wlreviver/internal/sim"
	"wlreviver/internal/trace"
)

// stack is one leveler × protector pairing under ECP6.
type stack struct {
	lv      sim.LevelerKind
	prot    sim.ProtectorKind
	reserve float64 // FREE-p's pre-reserved share
}

func (s stack) String() string { return s.lv.String() + "-" + s.prot.String() }

// ladderStacks are failure_ladder's protectors under Start-Gap;
// revivalStacks are the related-work levelers under WL-Reviver, which
// the traced run measures (see METRICS.md for why they are not an
// untraced workload).
var (
	ladderStacks = []stack{
		{sim.LevelerStartGap, sim.ProtectorWLReviver, 0},
		{sim.LevelerStartGap, sim.ProtectorLLS, 0},
		{sim.LevelerStartGap, sim.ProtectorFREEp, 0.10},
	}
	revivalStacks = []stack{
		{sim.LevelerSecurityRefresh, sim.ProtectorWLReviver, 0},
		{sim.LevelerRegionedStartGap, sim.ProtectorWLReviver, 0},
		{sim.LevelerWoLFRaM, sim.ProtectorWLReviver, 0},
		{sim.LevelerSoftWear, sim.ProtectorWLReviver, 0},
	}
	benchTraces = []string{"mg", "ocean"}
)

// engineSpec is one bench-geometry engine: a stack on a Table I trace.
type engineSpec struct {
	st       stack
	workload string
}

func (es engineSpec) key() string { return es.st.String() + "/" + es.workload }

func specsOf(stacks []stack, traces []string) []engineSpec {
	var out []engineSpec
	for _, st := range stacks {
		for _, w := range traces {
			out = append(out, engineSpec{st, w})
		}
	}
	return out
}

// Bench geometry (sim.BenchScale): 2^13 blocks in 32-block pages,
// endurance 2500, ψ=50. Every engine runs until stopDead of its blocks
// are dead (the top of Table II's ladder), it stops (end of life, LLS
// crippling) or it reaches lifeBudgetWPB writes per block.
const (
	benchBlocks   = 1 << 13
	stopDead      = 0.30
	lifeBudgetWPB = 6000
	// reqWrites is one RunN step between stop-rule checks, and the size
	// of a fleet count request.
	reqWrites = 4096
)

// benchConfig is the sim.BenchScale engine configuration for st, with
// Table II's 32 KB remap cache.
func benchConfig(st stack, seed uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Blocks = benchBlocks
	cfg.BlocksPerPage = 32
	cfg.MeanEndurance = 2500
	cfg.GapWritePeriod = 50
	cfg.LLSChunkPages = cfg.Blocks / 16 / cfg.BlocksPerPage
	cfg.Seed = seed
	cfg.Leveler = st.lv
	cfg.Protector = st.prot
	cfg.FreepReserveFraction = st.reserve
	cfg.CacheKB = 32
	return cfg
}

// buildBench builds es's engine on a fresh chip.
func buildBench(es engineSpec, cfg sim.Config) (*sim.Engine, error) {
	gen, err := trace.NewBenchmark(es.workload, cfg.Blocks, cfg.BlocksPerPage, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return sim.NewEngine(cfg, gen)
}

// lifeDone is the shared stop rule, checked between requests.
func lifeDone(deadFraction float64, writes uint64) bool {
	return deadFraction >= stopDead || writes >= lifeBudgetWPB*benchBlocks
}

// lifeOutcome is one engine at the stop rule.
type lifeOutcome struct {
	writes   uint64
	wpb      float64
	accRatio float64 // PCM accesses per software request
	digest   string  // SHA-256 of the final Checkpoint()
}

func finishLife(e *sim.Engine) (lifeOutcome, error) {
	out := lifeOutcome{writes: e.Writes(), wpb: e.WritesPerBlock()}
	req, acc := e.RequestCounts()
	if req == 0 {
		return out, fmt.Errorf("engine serviced no requests")
	}
	out.accRatio = float64(acc) / float64(req)
	img, err := e.Checkpoint()
	if err != nil {
		return out, err
	}
	out.digest = digest(img)
	return out, nil
}

// setupEngines builds every engine of specs, cold, reps times: reps-1
// throw-away repetitions on derived seeds (each fresh to trace's
// calibration cache), then the kept one on seed. It returns the kept
// engines and the median set-up time in seconds.
func setupEngines(specs []engineSpec, seed uint64, reps int) ([]*sim.Engine, float64, error) {
	var times []float64
	var kept []*sim.Engine
	for rep := reps - 1; rep >= 0; rep-- {
		s := seed
		if rep > 0 {
			s = subSeed(seed, uint64(1000+rep))
		}
		t := time.Now()
		engines := make([]*sim.Engine, len(specs))
		for i, es := range specs {
			e, err := buildBench(es, benchConfig(es.st, s))
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", es.key(), err)
			}
			engines[i] = e
		}
		times = append(times, time.Since(t).Seconds())
		if rep == 0 {
			kept = engines
		}
	}
	return kept, median(times), nil
}

// simWorkers bounds the simulation goroutines of every workload.
const simWorkers = 2

// runFailureLadder times whole rounds. One request is one round: every
// ladder engine run from a fresh chip to the stop rule, on two workers
// — what regenerating the workload's experiment costs. Rounds repeat
// until dur has elapsed (whole rounds only). Round 0 runs the engines
// set-up built on seed; it gives the model metrics and, at the default
// seed, must match the pinned digests. Round r > 0 builds fresh chips on
// the r-th seed derived from seed, so a run's timings average over
// several chip sets: one seed's chips alone vary in host cost by more
// than the timing bounds allow.
func runFailureLadder(seed uint64, dur time.Duration, _ string) (*report, error) {
	specs := specsOf(ladderStacks, benchTraces)
	rep := newReport(endToEnd)
	engines, setupS, err := setupEngines(specs, seed, 9)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS)
	runtime.GC() // set-up's garbage, off the clock

	var ref []lifeOutcome
	var lat []float64
	var writes uint64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < dur; round++ {
		s := seed
		if round > 0 {
			s = subSeed(seed, uint64(2000+round))
		}
		t := time.Now()
		outs, errs := runRound(specs, s, engines)
		lat = append(lat, ms(time.Since(t)))
		rep.op(nil)
		engines = nil
		if round == 0 {
			ref = outs
		}
		for i, o := range outs {
			key := "failure_ladder/" + specs[i].key()
			rep.op(errs[i])
			writes += o.writes
			if errs[i] != nil || round > 0 {
				continue
			}
			checkPin(rep, key, o.digest, seed)
			rep.note("digest %s %s writes=%d", key, o.digest, o.writes)
		}
	}
	wall := time.Since(start).Seconds()

	var wpb, acc float64
	for _, o := range ref {
		wpb += o.wpb
		acc += o.accRatio
	}
	rep.set("sim_lifetime_wpb", wpb/float64(len(ref)))
	rep.set("sim_accesses_per_request", acc/float64(len(ref)))
	rep.note("rounds=%d round_ms=%.1f wall_s=%.3f", len(lat), lat, wall)
	rep.set("sim_writes_per_s", float64(writes)/wall)
	rep.set("req_per_s", float64(len(lat))/wall)
	rep.set("req_p50_ms", quantile(lat, 0.50))
	rep.set("req_p99_ms", quantile(lat, 0.99))
	return rep, nil
}

// runRound runs every spec once to the stop rule on two workers: on
// engines when non-nil (round 0's, built during set-up), else on fresh
// chips built on seed inside the round.
func runRound(specs []engineSpec, seed uint64, engines []*sim.Engine) ([]lifeOutcome, []error) {
	outs := make([]lifeOutcome, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
				var e *sim.Engine
				if engines != nil {
					e = engines[i]
				} else if e, errs[i] = buildBench(specs[i], benchConfig(specs[i].st, seed)); errs[i] != nil {
					continue
				}
				for !lifeDone(e.DeadFraction(), e.Writes()) && e.RunN(reqWrites) == reqWrites {
				}
				outs[i], errs[i] = finishLife(e)
			}
		}()
	}
	wg.Wait()
	return outs, errs
}

// ---- chip1gb_healthy ------------------------------------------------------------

// The paper's chip (sim.Paper1GBScale): 2^24 blocks on a 64-shard grid,
// endurance 1e8, Start-Gap + WL-Reviver + ECP6 on ocean, shard pool 2.
// The model metrics and the checkpoint gate are taken at chipBudget
// writes (one write per block), the chip's fixed budget.
const (
	chipBlocks = 1 << 24
	chipGrid   = 64
	chipBudget = chipBlocks
	chipTrace  = "ocean"
	chipReps   = 3
)

// chipRequest is one chip request: a RunN of the batch the paper-scale
// experiments run this chip in (2^21 writes, 32768 per shard between
// shard-pool barriers).
var chipRequest = sim.Paper1GBScale().BatchWrites

func chipConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Blocks = chipBlocks
	cfg.BlocksPerPage = 64
	cfg.MeanEndurance = 1e8
	cfg.GapWritePeriod = 100
	cfg.LLSChunkPages = cfg.Blocks / 16 / cfg.BlocksPerPage
	cfg.Seed = seed
	return cfg
}

// buildChip builds the sharded chip, returning the time spent in
// trace.NewBenchmark alongside.
func buildChip(seed uint64, pool int) (*sim.ShardedEngine, time.Duration, error) {
	var genT time.Duration
	se, err := sim.NewShardedEngine(sim.ShardedConfig{Grid: chipGrid, Pool: pool}, chipConfig(seed),
		func(_ uint64, sc sim.Config) (trace.Generator, error) {
			t := time.Now()
			g, err := trace.NewBenchmark(chipTrace, sc.Blocks, sc.BlocksPerPage, sc.Seed)
			genT += time.Since(t)
			return g, err
		})
	return se, genT, err
}

// chipDigest folds every shard's Checkpoint() digest into one, a shard
// at a time so the whole-chip image never sits in memory.
func chipDigest(se *sim.ShardedEngine) (string, error) {
	var all []byte
	for i := 0; i < int(se.Grid()); i++ {
		img, err := se.Shard(i).Checkpoint()
		if err != nil {
			return "", err
		}
		all = append(all, digest(img)...)
	}
	return digest(all), nil
}

func runChip1GB(seed uint64, dur time.Duration, _ string) (*report, error) {
	rep := newReport(endToEnd)
	var setup []float64
	var se *sim.ShardedEngine
	for r := chipReps - 1; r >= 0; r-- {
		s := seed
		if r > 0 {
			s = subSeed(seed, uint64(1000+r))
		}
		se = nil
		releaseMemory()
		t := time.Now()
		var err error
		if se, _, err = buildChip(s, simWorkers); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	rep.set("setup_s", median(setup))
	// Collect set-up's garbage before timing, and the digest's at the
	// budget point below, so no collection of it lands on a request.
	runtime.GC()

	var lat []float64
	var busy time.Duration
	for se.Writes() < chipBudget || busy < dur {
		t := time.Now()
		n := se.RunN(chipRequest)
		d := time.Since(t)
		busy += d
		lat = append(lat, ms(d))
		rep.op(nil)
		if n < chipRequest {
			rep.op(fmt.Errorf("chip1gb_healthy: %w at %d writes", errStopped, se.Writes()))
			break
		}
		if se.Writes() != chipBudget {
			continue
		}
		// The budget point: model metrics and gates, off the clock.
		req, acc := se.RequestCounts()
		rep.set("sim_accesses_per_request", float64(acc)/float64(req))
		rep.set("sim_lifetime_wpb", se.WritesPerBlock())
		rep.gate(se.DeadFraction() == 0, "chip1gb_healthy: %.6f of blocks dead on a healthy chip", se.DeadFraction())
		d2, err := chipDigest(se)
		rep.op(err)
		rep.note("digest chip1gb_healthy/SG-WLR/%s@%d %s", chipTrace, chipBudget, d2)
		checkPin(rep, "chip1gb_healthy", d2, seed)
		runtime.GC()
	}
	rep.set("sim_writes_per_s", float64(se.Writes())/busy.Seconds())
	rep.set("req_per_s", float64(len(lat))/busy.Seconds())
	rep.set("req_p50_ms", quantile(lat, 0.50))
	rep.set("req_p99_ms", quantile(lat, 0.99))
	rep.note("setup_reps_s=%v requests=%d latency_samples=%d busy_s=%.3f", setup, len(lat), len(lat), busy.Seconds())
	return rep, nil
}

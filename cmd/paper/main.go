// Command paper regenerates the tables and figures of the WL-Reviver
// paper's evaluation (DSN 2014) at a configurable scale.
//
// Usage:
//
//	paper [-scale tiny|bench|paper|paper1gb] [-exp all|table1|fig5|fig6|fig7|fig8|table2|wolfram|softwear|attacks]
//	      [-seed N] [-workers N] [-shards N] [-shard-grid N] [-budget F]
//	      [-cpuprofile f] [-memprofile f] [-benchjson f]
//	      [-csv dir] [-metrics f] [-progress] [-timing=false]
//	      [-checkpoint-every N] [-checkpoint-dir d] [-resume d] [-crash-after N]
//	paper -benchdiff old.json new.json
//
// The experiment set is wlreviver.Experiments(); -exp selects one entry
// by name (or "all"). Its usage text lists ExperimentNames(), and a test
// keeps the list above in step. Output is the textual form of each
// table/figure; EXPERIMENTS.md records a reference run against the
// paper's reported results. Experiments fan their independent engines
// out over -workers goroutines (default: all CPUs); results are
// identical for any worker count. -metrics attaches a wlreviver.Metrics
// observer to every engine and writes the collected event counters and
// snapshot series as JSON (schema in EXPERIMENTS.md); -progress streams
// snapshot lines to stderr. Neither changes the simulated results or
// stdout.
//
// When the scale carries a shard grid (paper1gb does; -shard-grid sets
// one anywhere), each engine's chip is partitioned into that many
// independent sub-chips executed by a per-engine pool of -shards
// goroutines (default: all CPUs). The grid is semantic — it selects a
// coarser chip model, appears in the banner, and is part of checkpoint
// state — while -shards is pure execution width: results are
// byte-identical for every value, and checkpoints move freely between
// widths. -budget overrides the scale's write budget (simulated
// writes/block); paper1gb needs it, as a full-lifetime run at 1e8
// endurance is ~1e15 writes.
//
// -checkpoint-dir writes per-engine checkpoint files (every
// -checkpoint-every simulated writes, and at each job's completion);
// -resume restores them and continues, producing output byte-identical
// to an uninterrupted run (use -timing=false for byte-stable stdout).
// -crash-after injects a crash fault after N simulated writes across
// the sweep and exits with code 3 — the test hook behind the resume
// guarantee. See EXPERIMENTS.md § Checkpoint format.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"wlreviver"
	"wlreviver/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		if errors.Is(err, wlreviver.ErrCrashed) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run() error {
	scaleName := flag.String("scale", "bench", "experiment scale: tiny, bench, paper or paper1gb")
	exp := flag.String("exp", "all", "experiment: "+strings.Join(append([]string{"all"}, wlreviver.ExperimentNames()...), ", "))
	seed := flag.Uint64("seed", 0, "override the scale's RNG seed (0 keeps the default)")
	workers := flag.Int("workers", runtime.NumCPU(), "engine fan-out per experiment; 1 runs serially")
	shards := flag.Int("shards", 0, "per-engine shard execution pool width (0: all CPUs); output-invariant")
	shardGrid := flag.Uint64("shard-grid", 0, "partition each chip into N shards (semantic; 0 keeps the scale's default)")
	budget := flag.Float64("budget", 0, "override the scale's write budget in simulated writes per block (0 keeps the default)")
	csvDir := flag.String("csv", "", "also write the curve figures as CSV files into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	benchJSON := flag.String("benchjson", "", "write per-experiment wall-clock and writes/sec as JSON to this file")
	benchDiff := flag.Bool("benchdiff", false, "compare two -benchjson files given as positional arguments and exit")
	gatePct := flag.Float64("gate", 0, "with -benchdiff: fail when new total writes/sec regresses more than this percent vs old (0 disables)")
	metricsPath := flag.String("metrics", "", "observe every engine and write event counters and snapshots as JSON to this file")
	progress := flag.Bool("progress", false, "stream per-engine snapshot lines to stderr while experiments run")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "checkpoint each engine every N simulated writes (0: only at -checkpoint-dir job completion)")
	ckptDir := flag.String("checkpoint-dir", "", "write per-engine checkpoint files into this directory")
	resumeDir := flag.String("resume", "", "resume from the checkpoint files in this directory (implies -checkpoint-dir)")
	crashAfter := flag.Uint64("crash-after", 0, "test hook: inject a crash after N simulated writes across the sweep (exit code 3)")
	timing := flag.Bool("timing", true, "print per-experiment wall-clock lines (disable for byte-stable stdout)")
	flag.Parse()

	if *benchDiff {
		if flag.NArg() != 2 {
			return fmt.Errorf("-benchdiff needs exactly two arguments: old.json new.json")
		}
		return runBenchDiff(flag.Arg(0), flag.Arg(1), *gatePct)
	}

	var scale wlreviver.Scale
	switch *scaleName {
	case "tiny":
		scale = wlreviver.TinyScale()
	case "bench":
		scale = wlreviver.BenchScale()
	case "paper":
		scale = wlreviver.PaperScale()
	case "paper1gb":
		scale = wlreviver.Paper1GBScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	scale.Workers = *workers
	if *shardGrid != 0 {
		scale.ShardGrid = *shardGrid
	}
	scale.Shards = *shards
	if *budget != 0 {
		scale.MaxWritesPerBlock = *budget
	}

	if *resumeDir != "" {
		if *ckptDir != "" && *ckptDir != *resumeDir {
			return fmt.Errorf("-resume %s conflicts with -checkpoint-dir %s", *resumeDir, *ckptDir)
		}
		*ckptDir = *resumeDir
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint-dir: %w", err)
		}
		scale.Checkpoint = &wlreviver.CheckpointPlan{
			Dir:    *ckptDir,
			Every:  *ckptEvery,
			Resume: *resumeDir != "",
		}
	} else if *ckptEvery != 0 || *crashAfter != 0 {
		return fmt.Errorf("-checkpoint-every and -crash-after need -checkpoint-dir or -resume")
	}
	if *crashAfter != 0 {
		scale.Checkpoint.ArmTotalCrash(*crashAfter)
	}

	var collector *metricsCollector
	if *metricsPath != "" || *progress {
		collector = &metricsCollector{
			byKey:    make(map[string]*wlreviver.Metrics),
			progress: *progress,
		}
		scale.Observe = collector.observe
		// ~64 snapshots per full-length run, paced in simulated writes so
		// the series is identical for any -workers value.
		scale.SnapshotEvery = uint64(scale.MaxWritesPerBlock*float64(scale.Blocks)) / 64
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	// The banner mentions workers only when parallel, so the output is
	// byte-identical across -workers values apart from this header. The
	// shard grid appears because it is semantic (a different chip model);
	// -shards never does, because the pool width is output-invariant.
	parallelNote := ""
	if scale.Workers > 1 {
		parallelNote = fmt.Sprintf(" workers=%d", scale.Workers)
	}
	gridNote := ""
	if scale.ShardGrid >= 2 {
		gridNote = fmt.Sprintf(" shardgrid=%d", scale.ShardGrid)
	}
	fmt.Printf("# scale=%s blocks=%d page=%d blocks endurance=%.0f psi=%d seed=%d%s%s\n\n",
		*scaleName, scale.Blocks, scale.BlocksPerPage, scale.MeanEndurance,
		scale.GapWritePeriod, scale.Seed, gridNote, parallelNote)

	experiments := wlreviver.Experiments()
	if *exp != "all" {
		e, err := wlreviver.LookupExperiment(*exp)
		if err != nil {
			return err
		}
		experiments = []wlreviver.Experiment{e}
	}

	report := benchReport{
		Scale:     *scaleName,
		Seed:      scale.Seed,
		Workers:   scale.Workers,
		ShardGrid: scale.ShardGrid,
		NumCPU:    runtime.NumCPU(),
	}
	if scale.ShardGrid >= 2 {
		// Record the effective pool width (0 means "all CPUs" on the
		// flag) so bench rows are self-describing.
		report.Shards = scale.Shards
		if report.Shards == 0 {
			report.Shards = runtime.GOMAXPROCS(0)
		}
	}
	for _, e := range experiments {
		start := time.Now()
		res, err := e.Run(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		elapsed := time.Since(start)
		fmt.Println(res)
		if *timing {
			fmt.Printf("(%s took %v)\n\n", e.Name, elapsed.Round(time.Millisecond))
		} else {
			fmt.Println()
		}
		report.add(e.Name, elapsed, totalWrites(res))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.Name, res); err != nil {
				return fmt.Errorf("%s: writing csv: %w", e.Name, err)
			}
		}
	}

	if *benchJSON != "" {
		if err := report.write(*benchJSON); err != nil {
			return fmt.Errorf("benchjson: %w", err)
		}
	}
	if *metricsPath != "" {
		if err := collector.write(*metricsPath); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

// ---- machine-readable timings ----------------------------------------------

// benchExperiment is one experiment's cost in the -benchjson report.
type benchExperiment struct {
	Name         string  `json:"name"`
	Seconds      float64 `json:"seconds"`
	Writes       uint64  `json:"writes"`
	WritesPerSec float64 `json:"writes_per_sec"`
}

// benchReport is the -benchjson document: per-experiment wall-clock and
// simulated-write throughput, plus run-wide totals.
type benchReport struct {
	Scale        string            `json:"scale"`
	Seed         uint64            `json:"seed"`
	Workers      int               `json:"workers"`
	Shards       int               `json:"shards,omitempty"`
	ShardGrid    uint64            `json:"shard_grid,omitempty"`
	NumCPU       int               `json:"num_cpu"`
	Experiments  []benchExperiment `json:"experiments"`
	TotalSeconds float64           `json:"total_seconds"`
	TotalWrites  uint64            `json:"total_writes"`
	WritesPerSec float64           `json:"writes_per_sec"`
}

// add records one experiment's timing.
func (r *benchReport) add(name string, elapsed time.Duration, writes uint64) {
	e := benchExperiment{Name: name, Seconds: elapsed.Seconds(), Writes: writes}
	if e.Seconds > 0 {
		e.WritesPerSec = float64(writes) / e.Seconds
	}
	r.Experiments = append(r.Experiments, e)
	r.TotalSeconds += e.Seconds
	r.TotalWrites += writes
	if r.TotalSeconds > 0 {
		r.WritesPerSec = float64(r.TotalWrites) / r.TotalSeconds
	}
}

// write dumps the report as indented JSON.
func (r *benchReport) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readBenchReport loads a -benchjson document.
func readBenchReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runBenchDiff compares two -benchjson reports experiment by experiment,
// printing wall-clock and throughput deltas. A speedup above 1 means the
// new run is faster (lower seconds, higher writes/sec). A nonzero
// gatePct turns the comparison into a CI gate: the run fails when the
// new report's total writes/sec falls more than gatePct percent below
// the old one. The gate looks only at the sweep total — per-experiment
// throughput at tiny scale is too noisy on shared runners to gate on —
// so a genuine hot-path regression still trips it while one slow
// experiment offset by a fast one does not hide (the totals weight by
// wall-clock, which is what CI budgets care about).
func runBenchDiff(oldPath, newPath string, gatePct float64) error {
	oldR, err := readBenchReport(oldPath)
	if err != nil {
		return err
	}
	newR, err := readBenchReport(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("# benchdiff %s (scale=%s seed=%d workers=%d shards=%d) vs %s (scale=%s seed=%d workers=%d shards=%d)\n",
		oldPath, oldR.Scale, oldR.Seed, oldR.Workers, oldR.Shards,
		newPath, newR.Scale, newR.Seed, newR.Workers, newR.Shards)
	// Differing -shards is the intended comparison (same simulation,
	// different pool width), so it draws no warning; a differing grid is
	// a different chip model and does.
	if oldR.Scale != newR.Scale || oldR.Seed != newR.Seed || oldR.Workers != newR.Workers ||
		oldR.ShardGrid != newR.ShardGrid {
		fmt.Println("# warning: runs differ in scale, seed, workers or shard grid; deltas are not like-for-like")
	}
	fmt.Printf("%-12s %10s %10s %8s %14s %14s %8s\n",
		"experiment", "old s", "new s", "time", "old w/s", "new w/s", "w/s")
	row := func(name string, oldS, newS, oldW, newW float64) {
		timeRatio, wRatio := "n/a", "n/a"
		if newS > 0 {
			timeRatio = fmt.Sprintf("%.2fx", oldS/newS)
		}
		if oldW > 0 {
			wRatio = fmt.Sprintf("%.2fx", newW/oldW)
		}
		fmt.Printf("%-12s %10.2f %10.2f %8s %14.0f %14.0f %8s\n",
			name, oldS, newS, timeRatio, oldW, newW, wRatio)
	}
	newByName := make(map[string]benchExperiment, len(newR.Experiments))
	for _, e := range newR.Experiments {
		newByName[e.Name] = e
	}
	for _, oe := range oldR.Experiments {
		ne, ok := newByName[oe.Name]
		if !ok {
			fmt.Printf("%-12s %10.2f %10s (missing from %s)\n", oe.Name, oe.Seconds, "-", newPath)
			continue
		}
		delete(newByName, oe.Name)
		row(oe.Name, oe.Seconds, ne.Seconds, oe.WritesPerSec, ne.WritesPerSec)
	}
	for _, ne := range newR.Experiments {
		if _, stillNew := newByName[ne.Name]; stillNew {
			fmt.Printf("%-12s %10s %10.2f (missing from %s)\n", ne.Name, "-", ne.Seconds, oldPath)
		}
	}
	row("total", oldR.TotalSeconds, newR.TotalSeconds, oldR.WritesPerSec, newR.WritesPerSec)
	if gatePct > 0 && oldR.WritesPerSec > 0 {
		floor := oldR.WritesPerSec * (1 - gatePct/100)
		if newR.WritesPerSec < floor {
			return fmt.Errorf("perf gate: total %.0f writes/sec is %.1f%% below baseline %.0f (limit %g%%)",
				newR.WritesPerSec, 100*(1-newR.WritesPerSec/oldR.WritesPerSec),
				oldR.WritesPerSec, gatePct)
		}
		fmt.Printf("# perf gate: ok (total %.0f w/s vs baseline %.0f, limit -%g%%)\n",
			newR.WritesPerSec, oldR.WritesPerSec, gatePct)
	}
	return nil
}

// writeCounter is implemented by results that track their simulated
// write volume.
type writeCounter interface {
	TotalWrites() uint64
}

// totalWrites extracts the simulated write count from a result
// (wlreviver.ResultPair sums its halves itself).
func totalWrites(res fmt.Stringer) uint64 {
	if wc, ok := res.(writeCounter); ok {
		return wc.TotalWrites()
	}
	return 0
}

// curveSet is implemented by results that carry plottable curves.
type curveSet interface {
	CurveData() (workload string, curves []stats.Curve)
}

// writeCSV dumps any curves a result carries as <dir>/<exp>[-workload].csv.
func writeCSV(dir, exp string, res fmt.Stringer) error {
	var sets []curveSet
	switch r := res.(type) {
	case wlreviver.ResultPair:
		for _, half := range r.Halves() {
			if cs, ok := half.(curveSet); ok {
				sets = append(sets, cs)
			}
		}
	case curveSet:
		sets = append(sets, r)
	default:
		return nil // tabular results have no curves
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, cs := range sets {
		workload, curves := cs.CurveData()
		name := exp
		if workload != "" {
			name += "-" + workload
		}
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		fmt.Fprint(w, "writes_per_block")
		maxX := 0.0
		for _, c := range curves {
			fmt.Fprintf(w, ",%s", strings.ReplaceAll(c.Name, ",", ";"))
			if n := len(c.Points); n > 0 && c.Points[n-1].X > maxX {
				maxX = c.Points[n-1].X
			}
		}
		fmt.Fprintln(w)
		// Curves sample on their own grids (a run ends at its floor), so
		// resample everything onto a common 256-point grid.
		const gridPoints = 256
		for i := 0; i <= gridPoints; i++ {
			x := maxX * float64(i) / gridPoints
			fmt.Fprintf(w, "%g", x)
			for _, c := range curves {
				fmt.Fprintf(w, ",%g", c.YAt(x))
			}
			fmt.Fprintln(w)
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// ---- engine observation (-metrics / -progress) ------------------------------

// metricsCollector hands one wlreviver.Metrics accumulator to each engine
// an experiment builds, keyed by the engine's role. The factory runs on
// worker goroutines, hence the mutex; each returned observer serves one
// engine, so the accumulators themselves are unshared.
type metricsCollector struct {
	mu       sync.Mutex
	byKey    map[string]*wlreviver.Metrics
	progress bool
}

// observe is the wlreviver.Scale.Observe factory.
func (c *metricsCollector) observe(key string) wlreviver.Observer {
	m := wlreviver.NewMetrics()
	c.mu.Lock()
	c.byKey[key] = m
	c.mu.Unlock()
	if c.progress {
		return progressObserver{Metrics: m, key: key}
	}
	return m
}

// write dumps every engine's metrics report as one JSON document keyed
// by engine role. Keys marshal sorted, so the file is deterministic.
func (c *metricsCollector) write(path string) error {
	c.mu.Lock()
	reports := make(map[string]wlreviver.MetricsReport, len(c.byKey))
	for key, m := range c.byKey {
		reports[key] = m.Report()
	}
	c.mu.Unlock()
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// progressObserver forwards everything to its Metrics and additionally
// streams each snapshot to stderr, leaving stdout byte-identical.
type progressObserver struct {
	*wlreviver.Metrics
	key string
}

// Snapshot accumulates the sample and prints a progress line.
func (p progressObserver) Snapshot(s wlreviver.Snapshot) {
	p.Metrics.Snapshot(s)
	fmt.Fprintf(os.Stderr, "progress %s: writes/block=%.0f survival=%.3f usable=%.3f dead=%d remaps=%d\n",
		p.key, s.WritesPerBlock, s.SurvivalRate, s.UsableFraction, s.DeadBlocks, s.LiveRemaps)
}

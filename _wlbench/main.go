// Command wlbench is the repository's benchmark. It runs one workload
// per invocation, checks the simulated outputs, and prints every metric
// by name with its unit; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload failure_ladder --seed 42 --seconds 10 --trace 0
//
// With --trace 0 the run measures the named workload untraced and
// reports the end-to-end metrics (endToEnd below). With --trace 1 it
// runs the per-layer ledger instead (ledger.go): every layer is timed
// from this package's own code, around calls into each layer's public
// functions, in the configuration of the workload each layer metric
// belongs to, so every traced run reports every per-layer metric
// whatever --workload names. METRICS.md documents each metric, its
// workload and the end-to-end metric it should move.
//
// A run exits 1, after printing its result, when any correctness gate
// failed, and 2 on a usage or set-up error.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the pinned checkpoint digests (pinned.go)
// were recorded with; it matches the repository's experiment scales.
const defaultSeed = 42

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every untraced run reports, in
// print order. BENCHMARK.json repeats them (a test keeps the two equal).
var endToEnd = []metricDef{
	{"sim_writes_per_s", "writes/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_accesses_per_request", "accesses/req"},
	{"sim_lifetime_wpb", "writes/block"},
	{"req_per_s", "req/s"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
}

// workloads maps each workload name to its untraced runner.
var workloads = map[string]func(seed uint64, dur time.Duration, dir string) (*report, error){
	"chip1gb_healthy": runChip1GB,
	"failure_ladder":  runFailureLadder,
	"fleet_churn":     runFleetChurn,
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: chip1gb_healthy, failure_ladder or fleet_churn")
	seed := flag.Uint64("seed", defaultSeed, "seed every input is derived from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the per-layer ledger instead of the untraced workload")
	flag.Parse()

	runWorkload, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "wlbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	dir, err := workDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	fsyncMs, err := fsyncProbe(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlbench:", err)
		return 2
	}
	host := map[string]any{
		"num_cpu": runtime.NumCPU(), "GOMAXPROCS": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "host.fsync_ms": fsyncMs,
	}
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)

	var rep *report
	if *traced == 1 {
		rep, err = runLedger(*seed, dir, fsyncMs)
	} else {
		rep, err = runWorkload(*seed, time.Duration(*seconds)*time.Second, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlbench:", err)
		return 2
	}
	if *traced == 0 {
		rep.set("peak_rss_mb", peakRSSMB())
	}
	rep.print(os.Stdout)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// workDir creates this run's scratch directory under the build
// directory (CARGO_TARGET_DIR when set, else .bench_build), so the
// benchmark writes nowhere outside its checkout.
func workDir() (string, error) {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// report accumulates one run's result: metric values, the operations
// attempted and failed, and the gate failures to explain.
type report struct {
	defs      []metricDef
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
	notes     []string
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// op counts one attempted operation (a request or a gate), failed when
// err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

// gate counts one correctness check.
func (r *report) gate(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable lines and, last, the JSON result.
// A metric the run could not measure is a bug in the run; it is
// reported as a failed gate rather than silently omitted.
func (r *report) print(w *os.File) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for _, n := range r.notes {
		fmt.Fprintf(bw, "note %s\n", n)
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricOut, len(r.defs))
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.op(fmt.Errorf("metric %s was not measured", d.name))
			v = 0
		}
		metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(bw, "metric %-44s %18s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(bw, "FAILED %s\n", p)
	}
	out, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	fmt.Fprintf(bw, "%s\n", out)
}

// ---- shared measurement helpers ---------------------------------------------

// subSeed derives the k-th independent seed from seed (splitmix64), for
// set-up repetitions and per-device seeds. It never returns 0, which
// some layers treat as "use the default".
func subSeed(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// quantile returns the q-quantile of xs by nearest rank (xs is sorted in
// place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// releaseMemory returns freed heap to the OS between set-up repetitions,
// so one repetition's garbage does not inflate the next one's cost or
// the peak resident set.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// fsyncProbe appends one journal-sized line to a file on the spill
// filesystem and fsyncs it, 32 times, and returns the median latency in
// ms — the disk's share of a fleet request, told apart from the
// program's.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.OpenFile(filepath.Join(dir, "fsync.probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var lat []float64
	for i := 0; i < 32; i++ {
		t := time.Now()
		if _, err := fmt.Fprintf(f, "c %d\n", 4096*(i+1)); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		lat = append(lat, ms(time.Since(t)))
	}
	return median(lat), nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

var errStopped = errors.New("engine stopped before its write budget")

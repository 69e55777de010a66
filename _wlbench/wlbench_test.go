package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"wlreviver/internal/sim"
	"wlreviver/internal/trace"
)

// TestLayeredMatchesRunN is the traced run's license: for every stack
// the traced run drives (ladderStacks, revivalStacks) at tiny geometry, driven deep
// into the failure regime, the layered driver leaves the engine's layers
// exactly where Engine.RunN does, at every request boundary. Runs go to
// 90% dead blocks, far enough that WL-Reviver suspends and resumes
// wear-leveling work.
func TestLayeredMatchesRunN(t *testing.T) {
	var suspensions uint64
	for _, es := range specsOf(append(slices.Clone(ladderStacks), revivalStacks...), benchTraces) {
		t.Run(es.key(), func(t *testing.T) {
			cfg := benchConfig(es.st, 7)
			cfg.Blocks = 1 << 10
			cfg.BlocksPerPage = 16
			cfg.MeanEndurance = 600
			cfg.GapWritePeriod = 20
			cfg.LLSChunkPages = cfg.Blocks / 16 / cfg.BlocksPerPage
			newGen := func() *trace.Weighted {
				g, err := trace.NewBenchmark(es.workload, cfg.Blocks, cfg.BlocksPerPage, cfg.Seed)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			u, err := sim.NewEngine(cfg, newGen())
			if err != nil {
				t.Fatal(err)
			}
			te, err := sim.NewEngine(cfg, newGen())
			if err != nil {
				t.Fatal(err)
			}
			d := newLayered(te, newGen(), 0)
			const chunk = 1000 // not a multiple of the address batch
			for u.DeadFraction() < 0.9 && u.WritesPerBlock() < 2000 {
				nu := u.RunN(chunk)
				nd := d.run(chunk)
				if nu != nd {
					t.Fatalf("at %d writes: RunN serviced %d, driver %d", u.Writes(), nu, nd)
				}
				if err := sameLayers(u, te, d.writes); err != nil {
					t.Fatalf("at %d writes: %v", u.Writes(), err)
				}
				if !slices.Equal(u.Device().WearCounts(), te.Device().WearCounts()) ||
					u.Device().DeadBlocks() != te.Device().DeadBlocks() ||
					!bytes.Equal(u.OS().Bitmap(), te.OS().Bitmap()) {
					t.Fatalf("at %d writes: wear, dead blocks or bitmap differ", u.Writes())
				}
				if nu < chunk {
					break
				}
			}
			if u.DeadFraction() < 0.10 {
				t.Fatalf("run ended at %.3f dead, not deep in the failure regime", u.DeadFraction())
			}
			if r, ok := te.Reviver(); ok {
				suspensions += r.Stats().Suspensions
			}
		})
	}
	if suspensions == 0 {
		t.Error("no WL-Reviver run suspended work; the resume path went untested")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// lists equal to the ones this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	check := func(label string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", label, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", label, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

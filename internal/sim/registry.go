package sim

import (
	"fmt"
	"sort"
)

// ReferenceWorkloads are the two Table I benchmarks the paper's
// per-workload figures (6–8) and Table II are evaluated on.
var ReferenceWorkloads = []string{"ocean", "mg"}

// Experiment is one registered evaluation preset: a stable name, a
// one-line description, and a runner producing the printable result.
// Every result also implements TotalWrites() uint64 (write-volume
// accounting) and, for the curve figures, CurveData() (CSV export).
type Experiment struct {
	Name string
	Doc  string
	Run  func(Scale) (fmt.Stringer, error)
}

// Experiments returns the ordered experiment registry — the single place
// evaluation presets are declared. The CLI's -exp dispatch and the public
// wlreviver re-exports are both built over it, so adding an experiment
// here surfaces it everywhere.
func Experiments() []Experiment {
	return []Experiment{
		{
			Name: "table1",
			Doc:  "benchmark write CoVs, paper vs synthetic stand-ins",
			Run:  func(s Scale) (fmt.Stringer, error) { return Table1(s) },
		},
		{
			Name: "fig5",
			Doc:  "lifetime to 30% capacity loss per benchmark, ±WL-Reviver",
			Run:  func(s Scale) (fmt.Stringer, error) { return Fig5(s) },
		},
		fig6.experiment(),
		fig7.experiment(),
		fig8.experiment(),
		{
			Name: "table2",
			Doc:  "access time and usable space at 10/20/30% failed blocks",
			Run: func(s Scale) (fmt.Stringer, error) {
				return Table2(s, []string{"mg", "ocean"})
			},
		},
		wolfram.experiment(),
		softwear.experiment(),
		{
			Name: "attacks",
			Doc:  "hammering and birthday-paradox attack costs, ±WL-Reviver",
			Run:  func(s Scale) (fmt.Stringer, error) { return Attacks(s) },
		},
	}
}

// ExperimentNames returns the registered names in registry order.
func ExperimentNames() []string {
	exps := Experiments()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	return names
}

// LookupExperiment returns the registered experiment with the given name,
// or an error listing the known names.
func LookupExperiment(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	known := ExperimentNames()
	sort.Strings(known)
	return Experiment{}, fmt.Errorf("sim: unknown experiment %q (known: %v): %w", name, known, ErrUnknownExperiment)
}

// DeviceStack is a named ECC/leveler/protector stack drawn from the
// experiment registry's sweeps, so a fleet tenant can ask for "the
// stack Figure 6's ECP6-SG-WLR arm runs" by name instead of spelling
// out the component selectors. Names are qualified by the experiment
// that defines them ("fig6/ECP6-SG-WLR", "fig7/FREE-p(10%)", ...).
type DeviceStack struct {
	// Name is the registry key, "<experiment>/<arm>".
	Name string
	// ECC, Leveler, Protector select the stack's components.
	ECC       ECCKind
	Leveler   LevelerKind
	Protector ProtectorKind
	// FreepReserveFraction is FREE-p's pre-reservation (fig7 arms).
	FreepReserveFraction float64
}

// Apply selects the stack's components in cfg.
func (st DeviceStack) Apply(cfg *Config) {
	cfg.ECC = st.ECC
	cfg.Leveler = st.Leveler
	cfg.Protector = st.Protector
	cfg.FreepReserveFraction = st.FreepReserveFraction
}

// DeviceStacks returns the named stacks in registry order: every arm of
// the curve experiments (Figure 6's six ECC/leveler stacks, Figure 7's
// protection ladder, Figure 8's WLR-vs-LLS pair and the new-leveler
// ladders), named "<experiment>/<arm>".
func DeviceStacks() []DeviceStack {
	var stacks []DeviceStack
	for _, f := range curveFigures() {
		for _, arm := range f.arms {
			arm.Name = f.exp + "/" + arm.Name
			stacks = append(stacks, arm)
		}
	}
	return stacks
}

// DeviceStackNames returns the registered stack names in order.
func DeviceStackNames() []string {
	stacks := DeviceStacks()
	names := make([]string, len(stacks))
	for i, s := range stacks {
		names[i] = s.Name
	}
	return names
}

// LookupDeviceStack returns the named stack, or an error listing the
// known names.
func LookupDeviceStack(name string) (DeviceStack, error) {
	for _, s := range DeviceStacks() {
		if s.Name == name {
			return s, nil
		}
	}
	known := DeviceStackNames()
	sort.Strings(known)
	return DeviceStack{}, fmt.Errorf("sim: unknown device stack %q (known: %v): %w", name, known, ErrUnknownExperiment)
}

// ResultPair bundles a per-workload figure's runs over the two reference
// workloads into one result, in presentation order.
type ResultPair struct {
	First  fmt.Stringer
	Second fmt.Stringer
}

// String renders both workloads' results.
func (p ResultPair) String() string { return p.First.String() + "\n" + p.Second.String() }

// Halves returns the per-workload results in presentation order.
func (p ResultPair) Halves() []fmt.Stringer { return []fmt.Stringer{p.First, p.Second} }

// TotalWrites sums the simulated write volume across both halves.
func (p ResultPair) TotalWrites() uint64 {
	var sum uint64
	for _, h := range p.Halves() {
		if wc, ok := h.(interface{ TotalWrites() uint64 }); ok {
			sum += wc.TotalWrites()
		}
	}
	return sum
}

// bothWorkloads runs a per-workload figure for the reference workloads.
func bothWorkloads[T fmt.Stringer](s Scale, f func(Scale, string) (T, error)) (fmt.Stringer, error) {
	first, err := f(s, ReferenceWorkloads[0])
	if err != nil {
		return nil, err
	}
	second, err := f(s, ReferenceWorkloads[1])
	if err != nil {
		return nil, err
	}
	return ResultPair{First: first, Second: second}, nil
}

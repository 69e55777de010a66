package sim

import (
	"fmt"
	"strings"

	"wlreviver/internal/cache"
	"wlreviver/internal/drm"
	"wlreviver/internal/ecc"
	"wlreviver/internal/freep"
	"wlreviver/internal/lls"
	"wlreviver/internal/mc"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/reviver"
	"wlreviver/internal/wear"
)

// This file is the one registration point for the configurable
// components. Each kind indexes a table row holding its display name and
// its constructor from Config; String, the Parse*Kind functions, engine
// construction and snapshot sampling all read the rows. Adding a
// component is one row here plus its Save/LoadState.

// LevelerKind selects the wear-leveling scheme.
type LevelerKind int

// Wear-leveling schemes.
const (
	// LevelerNone disables wear leveling (Figure 6's "ECP6"/"PAYG"
	// baselines).
	LevelerNone LevelerKind = iota
	// LevelerStartGap is Start-Gap with Feistel address randomization.
	LevelerStartGap
	// LevelerSecurityRefresh is single- or two-level Security Refresh.
	LevelerSecurityRefresh
	// LevelerRegionedStartGap is the original paper's multi-region
	// Start-Gap organisation (independent start/gap per region).
	LevelerRegionedStartGap
	// LevelerWoLFRaM is WoLFRaM-style programmable-address-decoder
	// remapping (arXiv:2010.02825).
	LevelerWoLFRaM
	// LevelerSoftWear is SoftWear-style software-only page-granularity
	// leveling through the OS page table (arXiv:2004.03244).
	LevelerSoftWear
)

// ProtectorKind selects the failure-protection framework.
type ProtectorKind int

// Failure-protection frameworks.
const (
	// ProtectorNone exposes the first failure to the leveler.
	ProtectorNone ProtectorKind = iota
	// ProtectorWLReviver is the paper's framework.
	ProtectorWLReviver
	// ProtectorFREEp is the adapted FREE-p baseline (§IV-C).
	ProtectorFREEp
	// ProtectorLLS is the LLS baseline (§IV-D).
	ProtectorLLS
	// ProtectorDRM is the adapted Dynamically Replicated Memory baseline
	// (page pairing; related work [11]).
	ProtectorDRM
)

// ECCKind selects the error-correction scheme.
type ECCKind int

// Error-correction schemes.
const (
	// ECCECP6 corrects up to 6 failed cells per 512-bit group.
	ECCECP6 ECCKind = iota
	// ECCECP1 corrects 1.
	ECCECP1
	// ECCPAYG is Pay-As-You-Go with the paper's default budget.
	ECCPAYG
)

// levelerRow registers one wear-leveling scheme.
type levelerRow struct {
	name string
	// build constructs the scheme over cfg.Blocks PAs.
	build func(cfg Config) (wear.Leveler, error)
	// ops reads the scheme's leveling-operation counter
	// (obs.Snapshot.LevelerOps); nil when it has none.
	ops func(wear.Leveler) uint64
}

// levelers is the leveler table, indexed by LevelerKind.
var levelers = [...]levelerRow{
	LevelerNone: {
		name: "none",
		build: func(cfg Config) (wear.Leveler, error) {
			return wear.Static{Size: cfg.Blocks}, nil
		},
	},
	LevelerStartGap: {
		name: "SG",
		build: func(cfg Config) (wear.Leveler, error) {
			sgCfg := wear.StartGapConfig{
				NumPAs:         cfg.Blocks,
				GapWritePeriod: cfg.GapWritePeriod,
				Seed:           cfg.Seed,
			}
			if cfg.Protector == ProtectorLLS {
				// LLS substitutes its restricted randomizer (§IV-D).
				rnd, err := lls.NewRestrictedRandomizer(cfg.Blocks, cfg.Seed)
				if err != nil {
					return nil, err
				}
				sgCfg.Randomizer = rnd
			}
			return wear.NewStartGap(sgCfg)
		},
		ops: func(l wear.Leveler) uint64 { return l.(*wear.StartGap).GapMoves() },
	},
	LevelerSecurityRefresh: {
		name: "SR",
		build: func(cfg Config) (wear.Leveler, error) {
			return wear.NewSecurityRefresh(wear.SecurityRefreshConfig{
				NumPAs:           cfg.Blocks,
				InnerRegions:     cfg.SRInnerRegions,
				OuterWritePeriod: cfg.GapWritePeriod,
				InnerWritePeriod: cfg.GapWritePeriod,
				Seed:             cfg.Seed,
			})
		},
		ops: func(l wear.Leveler) uint64 { return l.(*wear.SecurityRefresh).OuterSwaps() },
	},
	LevelerRegionedStartGap: {
		name: "SG-R",
		build: func(cfg Config) (wear.Leveler, error) {
			return wear.NewRegionedStartGap(wear.RegionedStartGapConfig{
				NumPAs:         cfg.Blocks,
				Regions:        orDefault(cfg.SGRegions, 4),
				GapWritePeriod: cfg.GapWritePeriod,
				Seed:           cfg.Seed,
			})
		},
		ops: func(l wear.Leveler) uint64 { return l.(*wear.RegionedStartGap).GapMoves() },
	},
	LevelerWoLFRaM: {
		name: "WFR",
		build: func(cfg Config) (wear.Leveler, error) {
			return wear.NewWoLFRaM(wear.WoLFRaMConfig{
				NumPAs:          cfg.Blocks,
				Regions:         orDefault(cfg.WFRRegions, 4),
				SwapWritePeriod: cfg.GapWritePeriod,
				Seed:            cfg.Seed,
			})
		},
		ops: func(l wear.Leveler) uint64 { return l.(*wear.WoLFRaM).Swaps() },
	},
	LevelerSoftWear: {
		name: "SW",
		build: func(cfg Config) (wear.Leveler, error) {
			return wear.NewSoftWear(wear.SoftWearConfig{
				NumPAs:      cfg.Blocks,
				PageBlocks:  cfg.BlocksPerPage,
				EpochWrites: orDefault(cfg.SWEpochWrites, cfg.BlocksPerPage*cfg.GapWritePeriod),
			})
		},
		ops: func(l wear.Leveler) uint64 { return l.(*wear.SoftWear).Relocations() },
	},
}

// protectorRow registers one failure-protection framework.
type protectorRow struct {
	name string
	// reserved sizes the extra device blocks the framework needs beyond
	// the leveler's DA space; nil when it needs none.
	reserved func(cfg Config) uint64
	// build constructs the framework over the assembled lower layers.
	build func(cfg Config, lv wear.Leveler, be *mc.Backend, osm *osmodel.Model, rc *cache.Cache) (mc.Protector, error)
	// terminal makes crippling end the run (Figure 8's LLS semantics).
	terminal bool
	// remaps reads the live remaps and unlinked spare PAs
	// (obs.Snapshot.LiveRemaps, SparePAs); nil when it tracks none.
	remaps func(mc.Protector) (live, spare int)
}

// protectors is the protector table, indexed by ProtectorKind.
var protectors = [...]protectorRow{
	ProtectorNone: {
		name: "none",
		build: func(_ Config, lv wear.Leveler, be *mc.Backend, osm *osmodel.Model, _ *cache.Cache) (mc.Protector, error) {
			return mc.NewPassthrough(lv, be, osm), nil
		},
	},
	ProtectorWLReviver: {
		name: "WLR",
		build: func(cfg Config, lv wear.Leveler, be *mc.Backend, osm *osmodel.Model, rc *cache.Cache) (mc.Protector, error) {
			return reviver.New(reviver.Config{
				PointerBytes:          cfg.RevPointerBytes,
				RemapCache:            rc,
				DisableChainReduction: cfg.DisableChainReduction,
				ImmediateAcquisition:  cfg.ImmediateAcquisition,
				Observer:              cfg.Observer,
			}, lv, be, osm)
		},
		remaps: func(p mc.Protector) (int, int) {
			r := p.(*reviver.Reviver)
			return r.LinkedFailures(), r.AvailableSpares()
		},
	},
	ProtectorFREEp: {
		name: "FREE-p",
		reserved: func(cfg Config) uint64 {
			return freep.ReservedSlots(cfg.Blocks, cfg.FreepReserveFraction)
		},
		build: func(cfg Config, lv wear.Leveler, be *mc.Backend, osm *osmodel.Model, rc *cache.Cache) (mc.Protector, error) {
			return freep.New(freep.Config{
				ReserveFraction: cfg.FreepReserveFraction,
				RemapCache:      rc,
				ZombiePairing:   cfg.FreepZombiePairing,
			}, lv, be, osm)
		},
	},
	ProtectorLLS: {
		name: "LLS",
		reserved: func(cfg Config) uint64 {
			// The backup region, in whole chunks.
			chunkBlocks := cfg.LLSChunkPages * cfg.BlocksPerPage
			extra := uint64(float64(cfg.Blocks) * orDefault(cfg.LLSBackupFraction, 0.5))
			return (extra + chunkBlocks - 1) / chunkBlocks * chunkBlocks
		},
		build: func(cfg Config, lv wear.Leveler, be *mc.Backend, osm *osmodel.Model, rc *cache.Cache) (mc.Protector, error) {
			return lls.New(lls.Config{
				ChunkPages:    cfg.LLSChunkPages,
				SalvageGroups: cfg.LLSSalvageGroups,
				RemapCache:    rc,
			}, lv, be, osm)
		},
		terminal: true,
	},
	ProtectorDRM: {
		name: "DRM",
		reserved: func(cfg Config) uint64 {
			return drm.ReservedBlocks(cfg.Blocks, cfg.FreepReserveFraction, cfg.BlocksPerPage)
		},
		build: func(cfg Config, lv wear.Leveler, be *mc.Backend, osm *osmodel.Model, rc *cache.Cache) (mc.Protector, error) {
			return drm.New(drm.Config{
				ReserveFraction: cfg.FreepReserveFraction,
				RemapCache:      rc,
			}, lv, be, osm)
		},
	},
}

// eccRow registers one error-correction scheme.
type eccRow struct {
	name string
	// build constructs the scheme over the device's blocks.
	build func(blocks uint64) (ecc.Scheme, error)
}

// eccs is the ECC table, indexed by ECCKind.
var eccs = [...]eccRow{
	ECCECP6: {"ECP6", func(n uint64) (ecc.Scheme, error) { return ecc.NewECP(6, n) }},
	ECCECP1: {"ECP1", func(n uint64) (ecc.Scheme, error) { return ecc.NewECP(1, n) }},
	ECCPAYG: {"PAYG", func(n uint64) (ecc.Scheme, error) { return ecc.NewPAYG(ecc.DefaultPAYGConfig(n), n) }},
}

// row returns the kind's table row, or nil when the kind is unregistered.
func (k LevelerKind) row() *levelerRow {
	if k < 0 || int(k) >= len(levelers) {
		return nil
	}
	return &levelers[k]
}

func (k ProtectorKind) row() *protectorRow {
	if k < 0 || int(k) >= len(protectors) {
		return nil
	}
	return &protectors[k]
}

func (k ECCKind) row() *eccRow {
	if k < 0 || int(k) >= len(eccs) {
		return nil
	}
	return &eccs[k]
}

// String returns the scheme's display name.
func (k LevelerKind) String() string {
	if r := k.row(); r != nil {
		return r.name
	}
	return "none"
}

// String returns the framework's display name.
func (k ProtectorKind) String() string {
	if r := k.row(); r != nil {
		return r.name
	}
	return "none"
}

// String returns the scheme's display name.
func (k ECCKind) String() string {
	if r := k.row(); r != nil {
		return r.name
	}
	return "ECP6"
}

// ParseLevelerKind maps a scheme's display name (the String() form) back
// to its LevelerKind. The empty string selects the DefaultConfig scheme,
// Start-Gap.
func ParseLevelerKind(s string) (LevelerKind, error) {
	if s == "" {
		return LevelerStartGap, nil
	}
	k, err := parseKind("leveler", s, len(levelers), func(i int) string { return levelers[i].name })
	return LevelerKind(k), err
}

// ParseProtectorKind maps a framework's display name back to its
// ProtectorKind. The empty string selects the DefaultConfig framework,
// WL-Reviver.
func ParseProtectorKind(s string) (ProtectorKind, error) {
	if s == "" {
		return ProtectorWLReviver, nil
	}
	k, err := parseKind("protector", s, len(protectors), func(i int) string { return protectors[i].name })
	return ProtectorKind(k), err
}

// ParseECCKind maps a scheme's display name back to its ECCKind. The
// empty string selects ECP6.
func ParseECCKind(s string) (ECCKind, error) {
	if s == "" {
		return ECCECP6, nil
	}
	k, err := parseKind("ECC", s, len(eccs), func(i int) string { return eccs[i].name })
	return ECCKind(k), err
}

// parseKind returns the index of the n-row table's row named s, or an
// error listing the known names in kind order.
func parseKind(what, s string, n int, name func(int) string) (int, error) {
	known := make([]string, n)
	for i := range known {
		if known[i] = name(i); known[i] == s {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown %s %q (known: %s): %w", what, s, strings.Join(known, ", "), ErrBadConfig)
}

// orDefault returns v, or def when v is zero.
func orDefault[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// Package drm implements an adapted Dynamically Replicated Memory
// baseline (Ipek et al., ASPLOS 2010), the remaining recovery approach in
// the paper's related work: instead of remapping individual failed
// blocks, DRM pairs a faulty page with a *compatible* partner page — one
// whose failed blocks sit at different offsets — so the pair serves every
// offset from whichever side is healthy there.
//
// Like FREE-p and Zombie, the original design records physical partner
// locations, which wear-leveling migrations would invalidate; the same
// adaptation the paper applies to FREE-p (§IV-C) applies here: partner
// pages come from a pre-reserved region outside the wear-leveling space,
// so the pairing stays valid while the wear-leveling scheme keeps
// migrating the primary data. The scheme works until no compatible
// partner can be found (or the reserve is exhausted), after which the
// next failure reaches the wear-leveling scheme and cripples it.
package drm

import (
	"fmt"

	"wlreviver/internal/cache"
	"wlreviver/internal/mc"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/pcm"
	"wlreviver/internal/wear"
)

// Config parameterises the adapted DRM.
type Config struct {
	// ReserveFraction is the fraction of total PCM capacity pre-reserved
	// as partner pages.
	ReserveFraction float64
	// RemapCache, when non-nil, caches failed-block partner locations.
	RemapCache *cache.Cache
}

// Stats counts the baseline's activity.
type Stats struct {
	SoftwareWrites  uint64
	SoftwareReads   uint64
	RequestAccesses uint64
	PagesPaired     uint64
	Repairings      uint64 // pairings replaced after a partner-side failure
	Exposed         bool
	LostWrites      uint64
}

// DRM is the adapted protector. The partner region occupies device
// blocks above the wear-leveling space, carved into page-sized frames.
type DRM struct {
	cfg Config         // ckpt:skip construction-time config, fingerprinted by the engine
	lv  wear.Leveler   // ckpt:skip wiring; the leveler checkpoints itself
	be  *mc.Backend    // ckpt:skip wiring; the backend checkpoints itself
	os  *osmodel.Model // ckpt:skip wiring; the OS model checkpoints itself

	pageBlocks uint64 // ckpt:derived recomputed from cfg in New
	// partner[page] is the partner frame's base DA for a paired primary
	// page (page is a DA-space page index: DA / pageBlocks).
	partner map[uint64]uint64
	// freeFrames are unpaired reserved frames' base DAs.
	freeFrames []uint64
	reserved   uint64 // ckpt:derived recomputed from cfg in New
	st         Stats
}

// ReservedBlocks returns the partner-region size in blocks for the given
// data capacity and reserve fraction, rounded down to whole pages.
func ReservedBlocks(dataBlocks uint64, fraction float64, pageBlocks uint64) uint64 {
	if fraction <= 0 {
		return 0
	}
	raw := uint64(float64(dataBlocks) * fraction / (1 - fraction))
	return raw / pageBlocks * pageBlocks
}

// New builds the protector. The device must hold
// lv.NumDAs() + ReservedBlocks(...) blocks.
func New(cfg Config, lv wear.Leveler, be *mc.Backend, os *osmodel.Model) (*DRM, error) {
	if cfg.ReserveFraction < 0 || cfg.ReserveFraction >= 1 {
		return nil, fmt.Errorf("drm: reserve fraction %v outside [0,1)", cfg.ReserveFraction)
	}
	pageBlocks := os.BlocksPerPage()
	reserved := ReservedBlocks(lv.NumPAs(), cfg.ReserveFraction, pageBlocks)
	need := lv.NumDAs() + reserved
	if be.Dev.NumBlocks() < need {
		return nil, fmt.Errorf("drm: device has %d blocks, need %d (%d leveler + %d reserved)",
			be.Dev.NumBlocks(), need, lv.NumDAs(), reserved)
	}
	d := &DRM{
		cfg:        cfg,
		lv:         lv,
		be:         be,
		os:         os,
		pageBlocks: pageBlocks,
		partner:    make(map[uint64]uint64),
		reserved:   reserved,
	}
	for base := lv.NumDAs(); base+pageBlocks <= lv.NumDAs()+reserved; base += pageBlocks {
		d.freeFrames = append(d.freeFrames, base)
	}
	return d, nil
}

// Name implements mc.Protector.
func (d *DRM) Name() string {
	return fmt.Sprintf("DRM(%.0f%%)", d.cfg.ReserveFraction*100)
}

// Stats returns a copy of the counters.
func (d *DRM) Stats() Stats { return d.st }

// RequestCounts implements mc.RequestStats.
func (d *DRM) RequestCounts() (requests, accesses uint64) {
	return d.st.SoftwareWrites + d.st.SoftwareReads, d.st.RequestAccesses
}

// FreeFrames returns the number of unpaired partner frames.
func (d *DRM) FreeFrames() int { return len(d.freeFrames) }

// Crippled implements mc.Crippler.
func (d *DRM) Crippled() bool { return d.st.Exposed }

// pageOf returns (page index, offset) of a data-region DA.
func (d *DRM) pageOf(da uint64) (uint64, uint64) {
	return da / d.pageBlocks, da % d.pageBlocks
}

// effective resolves a data-region DA: a dead block in a paired page is
// served by the partner frame's same-offset block. The probe of the dead
// block costs one access unless cached.
func (d *DRM) effective(da uint64) (uint64, uint64) {
	if !d.be.Dead(da) {
		return da, 0
	}
	page, off := d.pageOf(da)
	base, paired := d.partner[page]
	if !paired {
		return da, 0
	}
	if d.cfg.RemapCache != nil && d.cfg.RemapCache.Lookup(da) {
		return base + off, 0
	}
	d.be.ReadRaw(da)
	return base + off, 1
}

// compatible reports whether a partner frame can serve every currently
// dead offset of the page (its blocks at those offsets are healthy).
func (d *DRM) compatible(page, base uint64) bool {
	for off := uint64(0); off < d.pageBlocks; off++ {
		if d.be.Dead(page*d.pageBlocks+off) && d.be.Dead(base+off) {
			return false
		}
	}
	return true
}

// pairPage finds a compatible partner frame for a page, migrating data
// already held by an old incompatible partner. Returns false when no
// compatible frame exists (exposure).
func (d *DRM) pairPage(page uint64) bool {
	oldBase, had := d.partner[page]
	for i, base := range d.freeFrames {
		if !d.compatible(page, base) {
			continue
		}
		d.freeFrames = append(d.freeFrames[:i], d.freeFrames[i+1:]...)
		if had {
			// Move the data the old partner was serving to the new one.
			for off := uint64(0); off < d.pageBlocks; off++ {
				da := page*d.pageBlocks + off
				if !d.be.Dead(da) || d.be.Dead(oldBase+off) {
					continue
				}
				d.be.ReadRaw(oldBase + off)
				if d.be.WriteRaw(base+off) && d.be.Dev.TracksContent() {
					d.be.Dev.SetContent(pcm.BlockID(base+off), d.be.Dev.Content(pcm.BlockID(oldBase+off)))
				}
			}
			d.st.Repairings++
		}
		d.partner[page] = base
		d.st.PagesPaired++
		if d.cfg.RemapCache != nil {
			for off := uint64(0); off < d.pageBlocks; off++ {
				d.cfg.RemapCache.Invalidate(page*d.pageBlocks + off)
			}
		}
		return true
	}
	// The old (incompatible) partner frame is worn at the conflicting
	// offset but other offsets may still serve later pairings; DRM's
	// simple pool model abandons it, as the original abandons
	// incompatible candidates.
	return false
}

// writeTo delivers a write to the storage behind a data-region DA.
func (d *DRM) writeTo(da, tag uint64) (uint64, bool) {
	for attempt := 0; attempt < 8; attempt++ {
		target, accesses := d.effective(da)
		accesses++
		if d.be.WriteRaw(target) {
			if d.be.Dev.TracksContent() {
				d.be.Dev.SetContent(pcm.BlockID(target), tag)
			}
			return accesses, true
		}
		// Either the data block or the partner-side block died: the page
		// needs a (new) compatible partner.
		page, _ := d.pageOf(da)
		if !d.pairPage(page) {
			d.st.Exposed = true
			d.st.LostWrites++
			return accesses, false
		}
	}
	d.st.Exposed = true
	return 0, false
}

// Write implements mc.Protector.
func (d *DRM) Write(pa, tag uint64) mc.WriteResult {
	d.st.SoftwareWrites++
	accesses, _ := d.writeTo(d.lv.Map(pa), tag)
	d.st.RequestAccesses += accesses
	return mc.WriteResult{Accesses: accesses}
}

// Read implements mc.Protector.
func (d *DRM) Read(pa uint64) (uint64, uint64) {
	d.st.SoftwareReads++
	target, accesses := d.effective(d.lv.Map(pa))
	d.be.ReadRaw(target)
	accesses++
	d.st.RequestAccesses += accesses
	if d.be.Dead(target) {
		return 0, accesses
	}
	return d.be.Dev.Content(pcm.BlockID(target)), accesses
}

// ResumePending implements mc.Protector: DRM pairs synchronously.
func (d *DRM) ResumePending() uint64 { return 0 }

// Migrate implements wear.Mover: partner frames are outside the
// wear-leveling space, so pairing commutes with migration.
func (d *DRM) Migrate(src, dst uint64) {
	esrc, _ := d.effective(src)
	if d.be.Dead(esrc) {
		return
	}
	d.be.ReadRaw(esrc)
	d.writeTo(dst, d.be.Dev.Content(pcm.BlockID(esrc)))
}

// Swap implements wear.Mover.
func (d *DRM) Swap(a, b uint64) {
	ea, _ := d.effective(a)
	eb, _ := d.effective(b)
	d.be.ReadRaw(ea)
	d.be.ReadRaw(eb)
	ta, tb := d.be.Dev.Content(pcm.BlockID(ea)), d.be.Dev.Content(pcm.BlockID(eb))
	deadA, deadB := d.be.Dead(ea), d.be.Dead(eb)
	if !deadB {
		d.writeTo(a, tb)
	}
	if !deadA {
		d.writeTo(b, ta)
	}
}

// SoftwareUsableFraction implements mc.SpaceReporter: the reserve is lost
// up front; hidden failures cost nothing further until exposure, after
// which every lost write leaves a dead block unusable.
func (d *DRM) SoftwareUsableFraction() float64 {
	total := float64(d.lv.NumPAs() + d.reserved)
	usable := float64(d.lv.NumPAs()) / total
	if d.st.Exposed {
		deadData := 0.0
		for da := uint64(0); da < d.lv.NumDAs(); da++ {
			page, _ := d.pageOf(da)
			if _, paired := d.partner[page]; !paired && d.be.Dead(da) {
				deadData++
			}
		}
		usable -= deadData / total
	}
	if usable < 0 {
		return 0
	}
	return usable
}

var (
	_ mc.Protector     = (*DRM)(nil)
	_ mc.RequestStats  = (*DRM)(nil)
	_ mc.Crippler      = (*DRM)(nil)
	_ mc.SpaceReporter = (*DRM)(nil)
)

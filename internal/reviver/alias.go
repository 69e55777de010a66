package reviver

import (
	"wlreviver/internal/mc"
	"wlreviver/internal/pcm"
)

// pcmBlockID aliases the device's block-address type.
type pcmBlockID = pcm.BlockID

// Interface compliance with the memory-controller plumbing.
var (
	_ mc.Protector     = (*Reviver)(nil)
	_ mc.RequestStats  = (*Reviver)(nil)
	_ mc.SpaceReporter = (*Reviver)(nil)
)

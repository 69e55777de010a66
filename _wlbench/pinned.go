package main

// pinnedDigests are SHA-256 digests of each simulator engine's final
// Checkpoint() at defaultSeed: failure_ladder's engines (checked by the
// untraced workload and the traced run), the related-work levelers
// under WL-Reviver (traced run, "revival/"), and chip1gb_healthy's
// folded per-shard digest at its write budget. A change that alters any
// simulated outcome fails these gates; such a change must say so and
// re-pin them from the "note digest" lines a run prints.
var pinnedDigests = map[string]string{
	"chip1gb_healthy":                "3d3748eb5feaddccbeb9053a7875d11e75ff6f31b0d16de48828b684902ca88f",
	"failure_ladder/SG-FREE-p/mg":    "febdeeae6120684ed3e4fe6db0ab1f903dc255ac4c824bfff5c6d0a1fd30e88b",
	"failure_ladder/SG-FREE-p/ocean": "abf41924bc467b01fe31449966b7378ab42a886faa52a5db067baa1c12ca80a7",
	"failure_ladder/SG-LLS/mg":       "d6615eafa147f1bf685c6167924c1f62bc060cda1d222b7b6edc02c4c4273f3d",
	"failure_ladder/SG-LLS/ocean":    "0c123797c2a65fd649a9de9dab55fa72e69a8f587124d4eecbc16811bea0dcc5",
	"failure_ladder/SG-WLR/mg":       "a744a1c9a3af359b2f1bf92383e4f61df4853a4e656253bd1facf2be0a7f3ddb",
	"failure_ladder/SG-WLR/ocean":    "449ba8639ade578aaf44299e4a3d62625b1fe2cf90b3234899967f958ae16b25",
	"revival/SG-R-WLR/mg":            "19c80ff99aebefda1cd4ff659e424f5627011ca01709ffd568ce842edf11b775",
	"revival/SG-R-WLR/ocean":         "acc81ad60276d507c481cbcfd517f0a3154c29668f5deb170aaf41cecd8fa47e",
	"revival/SR-WLR/mg":              "b3df6ca7713f3685be3b3890927e08bf0ad7f758892c25fcb9f57837780fdaa6",
	"revival/SR-WLR/ocean":           "0374c04c23e49c754a2708de9a666363c38de7ae3a585c9053d8c12811f8024b",
	"revival/SW-WLR/mg":              "8468d200ee287cdc2a317e8fe7c4d7b47f02605ca226ff470188e15e2d761811",
	"revival/SW-WLR/ocean":           "85a3ff8b02dc84da861a80e1d51a04404f583c9a75e7a02cda59e74df7a9cfdf",
	"revival/WFR-WLR/mg":             "2a1c4100bec4e72c9fa13bb19bf61b406fad6b2057cdc76f2aaa71547c98270a",
	"revival/WFR-WLR/ocean":          "b83c3f526a42d0240d1e2c00638130e44f77a5cfbf488575440206b09ce474f6",
}

// checkPin gates got against key's pinned digest at defaultSeed. A key
// without a pin fails the gate, so a renamed stack or key cannot skip
// the check unnoticed.
func checkPin(rep *report, key, got string, seed uint64) {
	if seed != defaultSeed {
		return
	}
	want, ok := pinnedDigests[key]
	if !ok {
		rep.gate(false, "%s: no pinned digest (checkpoint %s)", key, got)
		return
	}
	rep.gate(got == want, "%s: checkpoint %s, pinned %s", key, got, want)
}

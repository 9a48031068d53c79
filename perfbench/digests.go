package main

// recordedDigests are the Stats + Activity digests of one pipeline window of
// each pair, keyed by digestKey. Every window restores the same warm
// checkpoint, so every window of a pair must reproduce its digest. A
// simulator change that alters any statistic or activity counter changes
// them; the failure message prints the new digest.
var recordedDigests = map[string]string{
	"164.gzip.Bim_4k/warm200000/window10000":     "5950f4ed0a078c72",
	"164.gzip.Hybrid_1/warm200000/window10000":   "f182bfc1b2d3a182",
	"164.gzip.TAGE_64k/warm200000/window10000":   "3d9e0cf9242d6402",
	"255.vortex.Bim_4k/warm200000/window10000":   "c3be68b69e6afa14",
	"255.vortex.Hybrid_1/warm200000/window10000": "f56672ec12c958d1",
	"255.vortex.TAGE_64k/warm200000/window10000": "dedacc2e134a598c",
	"171.swim.Bim_4k/warm200000/window10000":     "59e82b78417cf90f",
	"171.swim.Hybrid_1/warm200000/window10000":   "b8330284f2842762",
	"171.swim.TAGE_64k/warm200000/window10000":   "18b9edf564e6423d",
}

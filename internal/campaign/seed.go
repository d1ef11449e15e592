package campaign

// Deterministic seed derivation (the checkpoint/resume contract).
//
// Every trial's seed is a pure function of (campaign base seed, config
// ID, trial index): the config ID is hashed with FNV-1a, mixed into the
// base seed, and the pair is finalized with two rounds of the SplitMix64
// mixer — the same finalizer internal/stats.Source is built on. The
// derivation is order-free: trial 17 of config "X" has the same seed
// whether it runs first, last, in another process, or after a resume,
// which is what makes interrupted campaigns resumable to bit-identical
// aggregates.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
	golden64    = 0x9e3779b97f4a7c15
)

// hashConfig hashes a config ID with FNV-1a.
func hashConfig(id string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime64
	}
	return h
}

// splitmix64 is the SplitMix64 finalizer (Steele et al.).
func splitmix64(x uint64) uint64 {
	x += golden64
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TrialSeed derives the seed for trial `trial` of config `config` under
// the campaign base seed. See the package contract above; changing this
// function invalidates every existing checkpoint.
func TrialSeed(base uint64, config string, trial int) uint64 {
	return splitmix64(splitmix64(base^hashConfig(config)) + uint64(trial)*golden64)
}

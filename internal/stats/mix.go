package stats

// SplitMix64 is one step of the SplitMix64 generator: the golden-ratio
// increment, then the finalizer, a bijective 64-bit mixer that turns
// (seed, index) hashes into well-spread bits. Every seeded coin, derived
// seed and hash route in the repository goes through it. It is written out
// flat to keep its inline cost low: the samplers' row hashes
// (sample.uniformHash, sample.tailHash) inline it twice each into the
// loops that fill their remembered bitmaps, and a body calling Mix64
// costs three more.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix64 is the SplitMix64 finalizer alone.
func Mix64(x uint64) uint64 { return SplitMix64(x - 0x9e3779b97f4a7c15) }

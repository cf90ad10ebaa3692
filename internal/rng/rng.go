// Package rng is the repository's one splitmix64: the finalizer, the salted
// sub-seed derivation behind every workload and trace stream, and the keyed
// mix behind every deterministic coin (fault injection, lossy transport,
// calibration reservoirs). Each is a pure function of its inputs, so a draw
// never depends on what was drawn before it or on goroutine scheduling.
package rng

// The splitmix64 constants: the golden-ratio increment, the finalizer's two
// multipliers, and a fourth odd weight for Keyed.
const (
	golden = 0x9e3779b97f4a7c15
	mulA   = 0xbf58476d1ce4e5b9
	mulB   = 0x94d049bb133111eb
	mulC   = 0x2545f4914f6cdd1d
)

// Mix64 is the splitmix64 finalizer.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * mulA
	x = (x ^ (x >> 27)) * mulB
	return x ^ (x >> 31)
}

// SubSeed derives an independent stream seed from a root seed and a salt
// path (e.g. service index, cohort index, client index). Derivation is pure
// mixing, so streams never depend on the order other streams are consumed.
func SubSeed(seed int64, salts ...uint64) uint64 {
	x := Mix64(uint64(seed) ^ 0xabcd_ef01_2345_6789)
	for _, s := range salts {
		x = Mix64(x ^ (s+golden)*mulA)
	}
	return x
}

// Keyed mixes four words, each weighted by its own constant, through Mix64.
// A key with fewer words passes zeros for the rest.
func Keyed(a, b, c, d uint64) uint64 {
	return Mix64(a*golden + b*mulA + c*mulB + d*mulC)
}

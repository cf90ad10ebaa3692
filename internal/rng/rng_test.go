package rng

import "testing"

// The derivations this package replaced, verbatim: the workload/trace
// sub-seed and the chaos fault coin's keyed mix (the lossy-transport and
// calibration coins are its two- and three-word prefixes).
func refSubSeed(seed int64, salts ...uint64) uint64 {
	mix := func(x uint64) uint64 {
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	x := mix(uint64(seed) ^ 0xabcd_ef01_2345_6789)
	for _, s := range salts {
		x = mix(x ^ (s+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9)
	}
	return x
}

func refKeyed(a, b, c, d uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9 + c*0x94d049bb133111eb + d*0x2545f4914f6cdd1d
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func TestBitIdenticalToReplacedDerivations(t *testing.T) {
	seeds := []int64{0, 1, 11, -7, 1 << 40}
	for _, seed := range seeds {
		for s := uint64(0); s < 64; s++ {
			if got, want := SubSeed(seed, 0x4d, s), refSubSeed(seed, 0x4d, s); got != want {
				t.Fatalf("SubSeed(%d, 0x4d, %d) = %#x, want %#x", seed, s, got, want)
			}
			if got, want := SubSeed(seed, s), refSubSeed(seed, s); got != want {
				t.Fatalf("SubSeed(%d, %d) = %#x, want %#x", seed, s, got, want)
			}
			u := uint64(seed)
			if got, want := Keyed(u, s, s>>2, s%3), refKeyed(u, s, s>>2, s%3); got != want {
				t.Fatalf("Keyed(%d, %d, …) = %#x, want %#x", seed, s, got, want)
			}
		}
		if got, want := SubSeed(seed), refSubSeed(seed); got != want {
			t.Fatalf("SubSeed(%d) = %#x, want %#x", seed, got, want)
		}
	}
}

func TestKeyedAllocatesNothing(t *testing.T) {
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += Keyed(sink, 2, 3, 4) }); n != 0 {
		t.Errorf("Keyed allocates %v per call", n)
	}
}

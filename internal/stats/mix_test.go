package stats

import "testing"

// TestSplitMix64Reference: SplitMix64 over the generator's states 0, γ, 2γ,
// … yields the reference SplitMix64 stream seeded at 0, and Mix64 is that
// finalizer without the increment.
func TestSplitMix64Reference(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}
	for i, w := range want {
		state := uint64(i) * gamma
		if got := SplitMix64(state); got != w {
			t.Errorf("output %d = %#x, want %#x", i, got, w)
		}
		if got := Mix64(state + gamma); got != w {
			t.Errorf("Mix64 of state %d + γ = %#x, want %#x", i, got, w)
		}
	}
}

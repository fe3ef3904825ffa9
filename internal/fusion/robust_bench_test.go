package fusion

import (
	"math/rand"
	"testing"
)

// benchSubmissions builds a pool of realistic 240-cell (1.2 km at 5 m)
// submissions from a rotating set of devices with per-device bias and noise.
func benchSubmissions(n, cells int) []*Profile {
	rng := rand.New(rand.NewSource(1234))
	out := make([]*Profile, n)
	for i := range out {
		bias := 0.002 * float64(i%7-3)
		out[i] = syntheticProfile(cells, 5, bias, 0.003+0.001*float64(i%5), rng)
	}
	return out
}

// benchRobustAdd measures one submission fold (RobustAccumulator.AddDevice)
// under the given policy on an unbounded window, which never evicts — the
// number under test is the per-submission fold itself;
// BenchmarkFusionAccAddWindowed times the evicting fold. The accumulator is
// recreated every 512 adds, as when the fusion family's baseline in
// BENCH.json was recorded, so the numbers stay comparable with it.
func benchRobustAdd(b *testing.B, policy Policy) {
	subs := benchSubmissions(64, 240)
	devs := make([]*DeviceState, 16)
	for i := range devs {
		devs[i] = NewDeviceState()
	}
	pol := FusionPolicy{Policy: policy}.WithDefaults()
	var acc *RobustAccumulator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%512 == 0 {
			acc = NewRobustAccumulator(0, pol)
		}
		if err := acc.AddDevice(subs[i%len(subs)], devs[i%len(devs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFusionAccAddRobustNaive(b *testing.B)   { benchRobustAdd(b, PolicyNaive) }
func BenchmarkFusionAccAddRobustHuber(b *testing.B)   { benchRobustAdd(b, PolicyHuber) }
func BenchmarkFusionAccAddRobustTrimmed(b *testing.B) { benchRobustAdd(b, PolicyTrimmed) }

// BenchmarkFusionAccAddWindowed times the steady-state evicting fold of the
// fleet ingest path: 706 road accumulators (the city network's roads, ~98
// cells each on average) with full 64-submission windows under huber, fed
// round-robin by 512 devices. Every op replaces a road's oldest row and
// re-adds its window, and the 706 windows (tens of MB) keep the working set
// far beyond L2, as on a server folding a fleet's uploads.
func BenchmarkFusionAccAddWindowed(b *testing.B) {
	const roads, window, variants = 706, 64, 4
	pol := FusionPolicy{Policy: PolicyHuber}.WithDefaults()
	rng := rand.New(rand.NewSource(77))
	devs := make([]*DeviceState, 512)
	for i := range devs {
		devs[i] = NewDeviceState()
	}
	accs := make([]*RobustAccumulator, roads)
	pool := make([][]*Profile, roads)
	for r := range accs {
		cells := 90 + r%17
		for v := 0; v < variants; v++ {
			bias := 0.002 * float64(v%3-1)
			pool[r] = append(pool[r], syntheticProfile(cells, 5, bias, 0.002+0.001*float64(v), rng))
		}
		// One fold past the window, so the planes exist before timing.
		accs[r] = NewRobustAccumulator(window, pol)
		for k := 0; k <= window; k++ {
			if err := accs[r].AddDevice(pool[r][k%variants], devs[(r+k)%len(devs)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % roads
		if err := accs[r].AddDevice(pool[r][(i/roads)%variants], devs[i%len(devs)]); err != nil {
			b.Fatal(err)
		}
	}
}

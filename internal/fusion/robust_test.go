package fusion

import (
	"math"
	"math/rand"
	"testing"
)

// syntheticProfile builds a submission over a sine-wave truth grade: truth
// plus the device's additive bias plus zero-mean noise of the given sigma,
// reported at variance sigma².
func syntheticProfile(cells int, spacing, bias, sigma float64, rng *rand.Rand) *Profile {
	p := &Profile{
		SpacingM: spacing,
		S:        make([]float64, cells),
		GradeRad: make([]float64, cells),
		Var:      make([]float64, cells),
	}
	for i := 0; i < cells; i++ {
		p.S[i] = float64(i) * spacing
		p.GradeRad[i] = 0.03*math.Sin(float64(i)/10) + bias + sigma*rng.NormFloat64()
		p.Var[i] = sigma * sigma
	}
	return p
}

// randomProfile builds a profile with rng-driven length, grades and
// variances; a few cells get zero or negative variance so the FuseProfiles
// skip rule is exercised.
func randomProfile(rng *rand.Rand, spacing float64) *Profile {
	n := 1 + rng.Intn(40)
	p := &Profile{
		SpacingM: spacing,
		S:        make([]float64, n),
		GradeRad: make([]float64, n),
		Var:      make([]float64, n),
	}
	for i := 0; i < n; i++ {
		p.S[i] = float64(i) * spacing
		p.GradeRad[i] = 0.1 * (rng.Float64() - 0.5)
		p.Var[i] = 1e-5 + 1e-3*rng.Float64()
		switch rng.Intn(40) {
		case 0:
			p.Var[i] = 0 // uncovered cell: batch fuse skips it
		case 1:
			p.Var[i] = -1e-4 // skipped the same way
		}
	}
	return p
}

// bitIdentical reports whether two profiles match bit-for-bit (NaN-safe).
func bitIdentical(a, b *Profile) bool {
	if a.SpacingM != b.SpacingM || a.Len() != b.Len() {
		return false
	}
	for i := range a.S {
		if math.Float64bits(a.S[i]) != math.Float64bits(b.S[i]) ||
			math.Float64bits(a.GradeRad[i]) != math.Float64bits(b.GradeRad[i]) ||
			math.Float64bits(a.Var[i]) != math.Float64bits(b.Var[i]) {
			return false
		}
	}
	return true
}

// lastN returns the trailing window of subs that a window-retaining
// accumulator keeps (all of them when window <= 0).
func lastN(subs []*Profile, window int) []*Profile {
	if window > 0 && len(subs) > window {
		return subs[len(subs)-window:]
	}
	return subs
}

// checkNaiveMatchesBatch is the equivalence property: under PolicyNaive
// (reputations ignored entirely, so the property holds for any reputation
// history), the accumulator's fused output is bit-identical (Float64bits) to
// batch FuseProfiles over the retained window after every add, and Len
// counts that window — through grid growth, uncovered cells, windowed
// eviction and, at window 64, more than three wraps of the plane ring. With
// withDevices each submission comes from one of four devices; without, it
// goes through the anonymous Add.
func checkNaiveMatchesBatch(t *testing.T, withDevices bool) {
	t.Helper()
	for _, window := range []int{0, 1, 3, 8, 64} {
		rng := rand.New(rand.NewSource(42))
		acc := NewRobustAccumulator(window, FusionPolicy{Policy: PolicyNaive})
		devices := make([]*DeviceState, 4)
		for i := range devices {
			devices[i] = NewDeviceState()
		}
		var all []*Profile
		for i := 0; i < 300; i++ {
			p := randomProfile(rng, 5)
			var err error
			if withDevices {
				err = acc.AddDevice(p, devices[i%len(devices)])
			} else {
				err = acc.Add(p)
			}
			if err != nil {
				t.Fatalf("window %d add %d: %v", window, i, err)
			}
			all = append(all, p)
			retained := lastN(all, window)
			if got := acc.Len(); got != len(retained) {
				t.Fatalf("window %d: Len = %d, want %d", window, got, len(retained))
			}
			want, err := FuseProfiles(retained)
			if err != nil {
				t.Fatalf("window %d batch fuse: %v", window, err)
			}
			got, err := acc.Fused()
			if err != nil {
				t.Fatalf("window %d robust fuse: %v", window, err)
			}
			if !bitIdentical(got, want) {
				t.Fatalf("devices=%v window %d after %d adds: naive robust fuse diverged from batch",
					withDevices, window, i+1)
			}
		}
	}
}

// TestAccumulatorMatchesBatchFuse: anonymous submissions folded one at a
// time match the batch fuse over the retained window, bit for bit.
func TestAccumulatorMatchesBatchFuse(t *testing.T) { checkNaiveMatchesBatch(t, false) }

// TestRobustNaivePolicyBitIdentical: the same property with per-device state
// attached, whose reputation updates the naive policy must not apply.
func TestRobustNaivePolicyBitIdentical(t *testing.T) { checkNaiveMatchesBatch(t, true) }

// TestRobustPlaneStrideGrowth drives the planes through every change of
// shape, bit-identical to the batch fuse after every add. They appear at the
// first eviction. A row one cell longer than the rest, and then a row far
// longer, arrive: each keeps a block of its own and the planes stay put, and
// once the long row is evicted the fused grid shrinks back. Longer rows then
// become common enough that the planes grow to hold them, and when the last
// of them leaves the planes shrink back too.
//
// Every row that fits the planes lives in them, the planes never exceed four
// times the retained terms, and once every row fits them an evicting fold
// allocates nothing.
func TestRobustPlaneStrideGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const window = 4
	acc := NewRobustAccumulator(window, FusionPolicy{Policy: PolicyNaive})
	prof := func(cells int) *Profile { return syntheticProfile(cells, 5, 0, 0.003, rng) }
	long := prof(300)
	long.Var[17] = 0 // an uncovered cell inside the long row
	var seq []*Profile
	for _, cells := range []int{10, 10, 10, 10, 10, 11, 300, 10, 10, 10, 10, 50, 50, 50, 50, 10, 10, 10, 10} {
		if cells == 300 {
			seq = append(seq, long)
		} else {
			seq = append(seq, prof(cells))
		}
	}
	// The stride after a given number of adds: no planes while the window
	// fills; 10 at the first eviction; still 10 beside the 11-cell row (less
	// than a quarter longer) and the long row (the planes would pass twice
	// the retained terms); 50 once two 50-cell rows justify it; 10 when the
	// last of them has left.
	wantStride := map[int]int{4: 0, 5: 10, 6: 10, 7: 10, 11: 10, 12: 10, 13: 50, 18: 50, 19: 10}
	var all []*Profile
	for i, p := range seq {
		if err := acc.Add(p); err != nil {
			t.Fatal(err)
		}
		all = append(all, p)
		want, err := FuseProfiles(lastN(all, window))
		if err != nil {
			t.Fatal(err)
		}
		got, err := acc.Fused()
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(got, want) {
			t.Fatalf("after %d adds: fuse diverged from batch", i+1)
		}
		if s, ok := wantStride[i+1]; ok && acc.stride != s {
			t.Fatalf("after %d adds: stride %d, want %d", i+1, acc.stride, s)
		}
		total := 0
		for k, r := range acc.rows {
			total += r.n
			if inPlanes := acc.wi != nil && r.n <= acc.stride; inPlanes != (r.block == nil) {
				t.Fatalf("after %d adds: row %d of %d cells at stride %d has block %v", i+1, k, r.n, acc.stride, r.block != nil)
			}
		}
		if len(acc.wi) != window*acc.stride || len(acc.wi) > 4*total {
			t.Fatalf("after %d adds: planes of %d floats at stride %d for %d retained cells",
				i+1, len(acc.wi), acc.stride, total)
		}
		if p == long && acc.Cells() != long.Len() {
			t.Fatalf("cells = %d with the long row retained, want %d", acc.Cells(), long.Len())
		}
	}
	if acc.Cells() != 10 || cap(acc.sumInv) > 40 || cap(acc.nSub) > 40 {
		t.Fatalf("cells = %d, totals of capacity %d and %d after the longer rows left, want 10 and at most 40",
			acc.Cells(), cap(acc.sumInv), cap(acc.nSub))
	}
	p := prof(10)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := acc.Add(p); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("an evicting fold whose row fits the planes allocates %v times, want 0", allocs)
	}
}

// TestRobustMinConsensusCounts: the per-cell submission counts that gate
// MinConsensus move incrementally on eviction; under both robust policies
// (where trimmed cells carry zero weight yet still count) they must equal a
// recount over the retained window after every add.
func TestRobustMinConsensusCounts(t *testing.T) {
	for _, policy := range []Policy{PolicyHuber, PolicyTrimmed} {
		for _, window := range []int{0, 3, 64} {
			rng := rand.New(rand.NewSource(21))
			acc := NewRobustAccumulator(window, FusionPolicy{Policy: policy})
			devices := []*DeviceState{NewDeviceState(), NewDeviceState(), NewDeviceState()}
			var all []*Profile
			for i := 0; i < 300; i++ {
				p := randomProfile(rng, 5)
				if err := acc.AddDevice(p, devices[i%len(devices)]); err != nil {
					t.Fatal(err)
				}
				all = append(all, p)
				want := make([]int32, acc.Cells())
				for _, q := range lastN(all, window) {
					for c := range q.Var {
						if q.Var[c] > 0 {
							want[c]++
						}
					}
				}
				for c := range want {
					if acc.nSub[c] != want[c] {
						t.Fatalf("%s window %d after %d adds: cell %d counts %d submissions, want %d",
							policy, window, i+1, c, acc.nSub[c], want[c])
					}
				}
			}
		}
	}
}

// TestRobustTermsOverwriteRow: an evicting fold writes its terms over the
// oldest plane row in place, so every cell must be written — skipped and
// trimmed cells included — whatever the row held before.
func TestRobustTermsOverwriteRow(t *testing.T) {
	for _, policy := range []Policy{PolicyNaive, PolicyHuber, PolicyTrimmed} {
		rng := rand.New(rand.NewSource(5))
		acc := NewRobustAccumulator(0, FusionPolicy{Policy: policy})
		for i := 0; i < 8; i++ {
			if err := acc.Add(randomProfile(rng, 5)); err != nil {
				t.Fatal(err)
			}
		}
		var gaps, trimmed int
		for i := 0; i < 40; i++ {
			p := randomProfile(rng, 5)
			n := p.Len()
			clean, dirty := make([]float64, 2*n), make([]float64, 2*n)
			for c := range dirty {
				dirty[c] = math.NaN()
			}
			st, g := acc.terms(p, nil, clean[:n], clean[n:])
			acc.terms(p, nil, dirty[:n], dirty[n:])
			for c := range clean {
				if math.Float64bits(clean[c]) != math.Float64bits(dirty[c]) {
					t.Fatalf("%s profile %d: term %d depends on the row's old contents", policy, i, c)
				}
			}
			gaps += len(g)
			trimmed += int(st.trimmed)
		}
		if gaps == 0 || (policy == PolicyTrimmed && trimmed == 0) {
			t.Fatalf("%s: %d skipped and %d trimmed cells; the test needs both", policy, gaps, trimmed)
		}
	}
}

// TestAccumulatorWindowShrinksCells: a long profile followed by short ones;
// once the long one is evicted, the fused grid must shrink back to the
// retained maximum, exactly as a batch fuse over the retained window would.
func TestAccumulatorWindowShrinksCells(t *testing.T) {
	long := &Profile{SpacingM: 5, S: make([]float64, 30), GradeRad: make([]float64, 30), Var: make([]float64, 30)}
	for i := range long.S {
		long.S[i] = float64(i) * 5
		long.GradeRad[i] = 0.01
		long.Var[i] = 1e-4
	}
	short := &Profile{SpacingM: 5, S: []float64{0, 5}, GradeRad: []float64{0.02, 0.03}, Var: []float64{1e-4, 1e-4}}
	acc := NewRobustAccumulator(2, FusionPolicy{Policy: PolicyNaive})
	for _, p := range []*Profile{long, short, short} {
		if err := acc.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := acc.Fused()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("cells = %d after evicting the long profile, want 2", got.Len())
	}
	want, err := FuseProfiles([]*Profile{short, short})
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(got, want) {
		t.Error("post-shrink fuse diverged from batch")
	}
}

// TestAccumulatorFusedIsFresh: Fused must hand out independent allocations;
// mutating one result must not corrupt a later read.
func TestAccumulatorFusedIsFresh(t *testing.T) {
	acc := NewRobustAccumulator(4, FusionPolicy{Policy: PolicyNaive})
	if err := acc.Add(randomProfile(rand.New(rand.NewSource(3)), 5)); err != nil {
		t.Fatal(err)
	}
	a, _ := acc.Fused()
	b, _ := acc.Fused()
	a.GradeRad[0] = 99
	if b.GradeRad[0] == 99 {
		t.Error("Fused results share backing arrays")
	}
}

// TestRobustBoundedInfluence: once a cell has consensus, one adversarial
// device — arbitrarily wrong and arbitrarily overconfident — moves any fused
// cell by at most the policy's clamp bound, for fleets of N honest devices.
func TestRobustBoundedInfluence(t *testing.T) {
	const cells = 60
	for _, policy := range []Policy{PolicyHuber, PolicyTrimmed} {
		for _, n := range []int{3, 10, 100} {
			pol := FusionPolicy{Policy: policy}.WithDefaults()
			acc := NewRobustAccumulator(0, pol)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < n; i++ {
				if err := acc.AddDevice(syntheticProfile(cells, 5, 0, 0.002, rng), NewDeviceState()); err != nil {
					t.Fatal(err)
				}
			}
			before, err := acc.Fused()
			if err != nil {
				t.Fatal(err)
			}
			// Adversary: hugely wrong grade at absurdly overconfident
			// (tiny) reported variance, so naive fusion would hand it
			// nearly all the weight.
			adv := syntheticProfile(cells, 5, 0, 0.002, rng)
			for c := range adv.GradeRad {
				adv.GradeRad[c] = 0.5
				adv.Var[c] = 1e-9
			}
			if err := acc.AddDevice(adv, NewDeviceState()); err != nil {
				t.Fatal(err)
			}
			after, err := acc.Fused()
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < cells; c++ {
				if d := math.Abs(after.GradeRad[c] - before.GradeRad[c]); d > pol.ClampRad+1e-12 {
					t.Fatalf("policy %s N=%d cell %d moved %.4f rad > clamp %.4f",
						policy, n, c, d, pol.ClampRad)
				}
			}
			// Sanity: naive fusion with the same inputs is NOT bounded —
			// the overconfident adversary captures the cell.
			if policy == PolicyHuber && n == 10 {
				naive := NewRobustAccumulator(0, FusionPolicy{Policy: PolicyNaive})
				rng2 := rand.New(rand.NewSource(7))
				for i := 0; i < n; i++ {
					_ = naive.Add(syntheticProfile(cells, 5, 0, 0.002, rng2))
				}
				nb, _ := naive.Fused()
				_ = naive.Add(adv)
				na, _ := naive.Fused()
				moved := math.Abs(na.GradeRad[10] - nb.GradeRad[10])
				if moved < 0.1 {
					t.Fatalf("naive fusion should be captured by the adversary, moved only %.4f rad", moved)
				}
			}
		}
	}
}

// TestRobustDeterministic: the robust path must stay bit-reproducible — the
// same submission/device sequence yields the bit-identical map, including
// across windowed evictions (frozen weights make rebuilds pure additions).
func TestRobustDeterministic(t *testing.T) {
	for _, window := range []int{3, 8, 0} {
		run := func() *Profile {
			rng := rand.New(rand.NewSource(99))
			acc := NewRobustAccumulator(window, FusionPolicy{Policy: PolicyHuber})
			devs := []*DeviceState{NewDeviceState(), NewDeviceState(), NewDeviceState()}
			for i := 0; i < 60; i++ {
				bias := 0.0
				if i%3 == 2 {
					bias = 0.08 // one misbehaving device in the rotation
				}
				p := syntheticProfile(40, 5, bias, 0.004, rng)
				if err := acc.AddDevice(p, devs[i%3]); err != nil {
					t.Fatal(err)
				}
			}
			f, err := acc.Fused()
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		a, b := run(), run()
		if !bitIdentical(a, b) {
			t.Fatalf("window %d: robust fusion is not deterministic", window)
		}
	}
}

// TestDeviceReputationHysteresis: disagreement demotes a device's reputation
// quickly; sustained agreement recovers it, but strictly more slowly than the
// fall (hysteresis), and never below the floor.
func TestDeviceReputationHysteresis(t *testing.T) {
	const cells = 40
	rng := rand.New(rand.NewSource(5))
	acc := NewRobustAccumulator(0, FusionPolicy{Policy: PolicyTrimmed})
	honest := []*DeviceState{NewDeviceState(), NewDeviceState(), NewDeviceState()}
	for i := 0; i < 6; i++ {
		if err := acc.AddDevice(syntheticProfile(cells, 5, 0, 0.004, rng), honest[i%3]); err != nil {
			t.Fatal(err)
		}
	}
	bad := NewDeviceState()
	// Zero-mean, large, alternating-sign disagreement: every cell is an
	// outlier but the mean residual is ~0, so the bias estimator cannot
	// "explain" it and reputation must take the hit.
	badProfile := func() *Profile {
		p := syntheticProfile(cells, 5, 0, 0.004, rng)
		for c := range p.GradeRad {
			off := 0.1
			if c%2 == 1 {
				off = -0.1
			}
			p.GradeRad[c] += off
		}
		return p
	}
	drops := 0
	for bad.Reputation > 0.2 {
		if err := acc.AddDevice(badProfile(), bad); err != nil {
			t.Fatal(err)
		}
		// Keep the consensus anchored by honest traffic.
		if err := acc.AddDevice(syntheticProfile(cells, 5, 0, 0.004, rng), honest[drops%3]); err != nil {
			t.Fatal(err)
		}
		drops++
		if drops > 20 {
			t.Fatalf("reputation did not drop below 0.2 after %d bad submissions (now %.3f)", drops, bad.Reputation)
		}
	}
	if drops > 8 {
		t.Fatalf("demotion too slow: %d submissions to fall below 0.2", drops)
	}
	if bad.LastAgreement > 0.3 {
		t.Errorf("LastAgreement = %.2f after persistent disagreement, want low", bad.LastAgreement)
	}
	if math.Abs(bad.BiasRad) > 0.02 {
		t.Errorf("zero-mean disagreement leaked into bias estimate: %.4f rad", bad.BiasRad)
	}

	// Rehabilitation: honest submissions from the demoted device.
	recoveries := 0
	for bad.Reputation < 0.9 {
		if err := acc.AddDevice(syntheticProfile(cells, 5, 0, 0.004, rng), bad); err != nil {
			t.Fatal(err)
		}
		recoveries++
		if recoveries > 60 {
			t.Fatalf("reputation did not recover above 0.9 after %d honest submissions (now %.3f)", recoveries, bad.Reputation)
		}
	}
	if recoveries <= drops {
		t.Errorf("no hysteresis: recovery (%d submissions) not slower than demotion (%d)", recoveries, drops)
	}
	if bad.Downweighted == 0 {
		t.Error("Downweighted counter never incremented for a misbehaving device")
	}
}

// TestDeviceBiasConvergence: a systematically miscalibrated (but otherwise
// honest) device has its additive offset learned from consensus residuals and
// subtracted, so its agreement — and usefulness — recovers.
func TestDeviceBiasConvergence(t *testing.T) {
	const cells, trueBias = 40, 0.05
	rng := rand.New(rand.NewSource(11))
	acc := NewRobustAccumulator(0, FusionPolicy{Policy: PolicyHuber})
	honest := []*DeviceState{NewDeviceState(), NewDeviceState(), NewDeviceState()}
	for i := 0; i < 6; i++ {
		if err := acc.AddDevice(syntheticProfile(cells, 5, 0, 0.004, rng), honest[i%3]); err != nil {
			t.Fatal(err)
		}
	}
	dev := NewDeviceState()
	for i := 0; i < 25; i++ {
		if err := acc.AddDevice(syntheticProfile(cells, 5, trueBias, 0.004, rng), dev); err != nil {
			t.Fatal(err)
		}
		if err := acc.AddDevice(syntheticProfile(cells, 5, 0, 0.004, rng), honest[i%3]); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(dev.BiasRad-trueBias) > 0.01 {
		t.Errorf("learned bias %.4f rad, want ≈ %.2f", dev.BiasRad, trueBias)
	}
	if dev.LastAgreement < 0.8 {
		t.Errorf("agreement %.2f after bias correction, want ≥ 0.8", dev.LastAgreement)
	}
	if dev.Reputation < 0.5 {
		t.Errorf("reputation %.2f: bias-corrected device should rehabilitate", dev.Reputation)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"naive", "huber", "trimmed"} {
		fp, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if string(fp.Policy) != name {
			t.Errorf("ParsePolicy(%q).Policy = %q", name, fp.Policy)
		}
		if fp.HuberK != 1.2 || fp.TrimZ != 3.0 || fp.ClampRad != 0.01 || fp.MinConsensus != 3 {
			t.Errorf("ParsePolicy(%q) defaults not applied: %+v", name, fp)
		}
	}
	if _, err := ParsePolicy("median"); err == nil {
		t.Error("unknown policy should error")
	}
	if (FusionPolicy{}).WithDefaults().Policy != PolicyNaive {
		t.Error("zero-value policy should default to naive")
	}
	if (FusionPolicy{Policy: PolicyHuber}).Robust() != true || (FusionPolicy{}).Robust() {
		t.Error("Robust() misclassifies policies")
	}
}

func TestRobustAccumulatorValidation(t *testing.T) {
	acc := NewRobustAccumulator(4, FusionPolicy{Policy: PolicyHuber})
	if _, err := acc.Fused(); err == nil {
		t.Error("empty accumulator should refuse to fuse")
	}
	if err := acc.Add(nil); err == nil {
		t.Error("nil profile should error")
	}
	if err := acc.Add(&Profile{SpacingM: 5}); err == nil {
		t.Error("empty profile should error")
	}
	p := randomProfile(rand.New(rand.NewSource(1)), 5)
	if err := acc.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(randomProfile(rand.New(rand.NewSource(2)), 3)); err == nil {
		t.Error("spacing mismatch should error")
	}
	if acc.Len() != 1 {
		t.Errorf("rejected profile must not be retained: Len = %d", acc.Len())
	}
	if acc.Spacing() != 5 {
		t.Errorf("Spacing = %v, want 5", acc.Spacing())
	}
	if got := acc.Policy().Policy; got != PolicyHuber {
		t.Errorf("Policy() = %q", got)
	}
}

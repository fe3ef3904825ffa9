package fusion

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"roadgrade/internal/obs"
)

// Robust-fusion instrumentation: how often the bounded-influence machinery
// actually fired (Huber down-weighting, residual clamping, trimming) and how
// long a robust fold takes per policy. The per-policy histograms are
// pre-created so the AddDevice path never builds label strings. Every fold and
// every eviction rebuild is counted too, so a deployment can see how much
// rebuild work evictions cost.
var (
	obsAccAdds     = obs.Default.Counter("fusion_accumulator_adds_total")
	obsAccRebuilds = obs.Default.Counter("fusion_accumulator_rebuilds_total")

	obsRobustDownweighted = obs.Default.Counter("fusion_robust_downweighted_total")
	obsRobustClamped      = obs.Default.Counter("fusion_robust_clamped_total")
	obsRobustTrimmed      = obs.Default.Counter("fusion_robust_trimmed_total")

	obsRobustAddSeconds = map[Policy]*obs.Histogram{
		PolicyNaive:   obs.Default.Histogram("fusion_robust_add_seconds", obs.LatencyBuckets, obs.L("policy", string(PolicyNaive))),
		PolicyHuber:   obs.Default.Histogram("fusion_robust_add_seconds", obs.LatencyBuckets, obs.L("policy", string(PolicyHuber))),
		PolicyTrimmed: obs.Default.Histogram("fusion_robust_add_seconds", obs.LatencyBuckets, obs.L("policy", string(PolicyTrimmed))),
	}
)

// Policy selects the per-cell estimator of a RobustAccumulator.
type Policy string

const (
	// PolicyNaive is the plain inverse-variance average of Eq. (6):
	// every submission is trusted at its reported precision, reputation
	// and bias corrections are ignored. Bit-identical to FuseProfiles.
	PolicyNaive Policy = "naive"
	// PolicyHuber down-weights outlying submissions per cell with the
	// Huber ψ-weight min(1, k/|z|) of the standardized residual z, and
	// clamps the admitted residual to ±ClampRad.
	PolicyHuber Policy = "huber"
	// PolicyTrimmed drops cells whose standardized residual exceeds
	// TrimZ entirely, and clamps the admitted residual to ±ClampRad.
	PolicyTrimmed Policy = "trimmed"
)

// FusionPolicy configures the robust estimator. The zero value selects the
// naive policy; WithDefaults fills unset knobs.
type FusionPolicy struct {
	// Policy selects the estimator ("" means naive).
	Policy Policy
	// HuberK is the Huber tuning constant in standardized-residual units
	// (default 1.2 — slightly harsher than the classical 95%-efficiency
	// 1.345, trading a little clean-fleet efficiency for a cleaner
	// consensus under contamination, which the per-device bias learner
	// then locks onto).
	HuberK float64
	// TrimZ is the trimming threshold in standardized-residual units
	// (default 3).
	TrimZ float64
	// ClampRad bounds the residual any single submission may inject into
	// a consensus cell, in radians (default 0.01 ≈ 0.57°). This is the
	// bounded-influence guarantee: one submission moves a fused cell by
	// strictly less than ClampRad. Road gradients drift slowly, so a
	// tight clamp costs legitimate traffic almost nothing while starving
	// the transient an adversary needs to seed the consensus.
	ClampRad float64
	// MinConsensus is the number of prior contributions a cell needs
	// before robust weighting applies (default 3); below it submissions
	// fuse naively so the first reporters cannot be "outliers" against
	// an empty map.
	MinConsensus int
	// MinWeight floors the reputation weight so a rehabilitated device's
	// submissions keep flowing into the agreement estimate (default 0.01).
	MinWeight float64
}

// WithDefaults returns the policy with unset knobs at their defaults.
func (fp FusionPolicy) WithDefaults() FusionPolicy {
	if fp.Policy == "" {
		fp.Policy = PolicyNaive
	}
	if fp.HuberK <= 0 {
		fp.HuberK = 1.2
	}
	if fp.TrimZ <= 0 {
		fp.TrimZ = 3.0
	}
	if fp.ClampRad <= 0 {
		fp.ClampRad = 0.01
	}
	if fp.MinConsensus <= 0 {
		fp.MinConsensus = 3
	}
	if fp.MinWeight <= 0 {
		fp.MinWeight = 0.01
	}
	return fp
}

// Robust reports whether the policy applies robust weighting (anything but
// naive).
func (fp FusionPolicy) Robust() bool {
	return fp.Policy != PolicyNaive && fp.Policy != ""
}

// ParsePolicy maps a policy name ("naive", "huber", "trimmed") to a
// FusionPolicy with default knobs.
func ParsePolicy(name string) (FusionPolicy, error) {
	switch Policy(name) {
	case PolicyNaive, PolicyHuber, PolicyTrimmed:
		return FusionPolicy{Policy: Policy(name)}.WithDefaults(), nil
	}
	return FusionPolicy{}, fmt.Errorf("fusion: unknown policy %q (want naive, huber, or trimmed)", name)
}

// Reputation EWMA and bias-learning constants. Demotion is faster than
// recovery (hysteresis): one bad submission drops a device quickly, and it
// must agree repeatedly to climb back.
const (
	repAlphaDown = 0.30 // EWMA gain when agreement < reputation
	repAlphaUp   = 0.12 // EWMA gain when agreement >= reputation
	repFloor     = 0.02 // reputation never reaches zero, so devices can recover
	agreeZ2      = 4.0  // |z| <= 2 counts as agreeing with consensus
	minScoreCell = 8    // consensus cells needed before rep/bias update

	biasGain   = 0.25 // EWMA gain of the additive bias estimate
	maxBiasRad = 0.15 // |learned bias| cap, radians (≈ 8.6°)
)

// DeviceState is the per-device trust state: an EWMA reputation in (0, 1]
// tracking how often the device's cells agree with the fused consensus, and a
// learned additive grade bias subtracted from its submissions before robust
// fusion. The caller (cloud.Server) owns locking.
type DeviceState struct {
	// Reputation in [repFloor, 1]; new devices start at 1.
	Reputation float64
	// BiasRad is the learned additive calibration offset, radians.
	BiasRad float64
	// Submissions counts folds that consulted this state.
	Submissions uint64
	// Downweighted counts submissions where the robust estimator fired
	// (Huber weight < 1, a trim, or a residual clamp on any cell).
	Downweighted uint64
	// LastAgreement is the most recent per-submission agreement score in
	// [0, 1] (fraction of consensus cells with |z| <= 2).
	LastAgreement float64
	// BiasObs counts submissions that updated BiasRad (enough consensus
	// overlap); it drives the decaying learning-rate schedule.
	BiasObs uint64
}

// NewDeviceState returns the state of a fresh, fully-trusted device.
func NewDeviceState() *DeviceState {
	return &DeviceState{Reputation: 1, LastAgreement: 1}
}

// weight maps reputation to the multiplicative fusion weight. Squaring makes
// the penalty super-linear (a rep-0.5 device contributes a quarter), and the
// floor keeps rehabilitation possible.
func (d *DeviceState) weight(minWeight float64) float64 {
	w := d.Reputation * d.Reputation
	if w < minWeight {
		return minWeight
	}
	return w
}

// foldStats is what one robust fold learned about the submitting device.
type foldStats struct {
	consensus int     // cells with an established consensus
	agree     int     // of those, cells with z^2 <= agreeZ2
	resSum    float64 // Σ residual over consensus cells (after bias subtraction)
	fired     bool    // any cell down-weighted, trimmed, or clamped
	// Per-mechanism cell counts, also batched into the obs counters.
	downweighted uint64
	trimmed      uint64
	clamped      uint64
}

// FoldReport summarizes what one fold did to one submission — the per-cell
// robustness interventions and the device's post-fold reputation — so
// callers (the coalescer's fold spans) can annotate traces with the
// trust decisions that shaped the map.
type FoldReport struct {
	ConsensusCells int     // cells scored against an established consensus
	AgreeCells     int     // of those, cells within the agreement band
	Downweighted   uint64  // cells Huber-downweighted
	Trimmed        uint64  // cells trimmed to zero weight
	Clamped        uint64  // cells residual-clamped
	Reputation     float64 // device reputation after the fold (1 when anonymous)
}

// observe folds one submission's agreement evidence into the device state.
// Reputation only moves when the submission overlapped enough established
// consensus (minScoreCell cells) for the score to mean something.
func (d *DeviceState) observe(st foldStats) {
	d.Submissions++
	if st.fired {
		d.Downweighted++
	}
	if st.consensus < minScoreCell {
		return
	}
	score := float64(st.agree) / float64(st.consensus)
	d.LastAgreement = score
	alpha := repAlphaUp
	if score < d.Reputation {
		alpha = repAlphaDown
	}
	d.Reputation += alpha * (score - d.Reputation)
	if d.Reputation < repFloor {
		d.Reputation = repFloor
	} else if d.Reputation > 1 {
		d.Reputation = 1
	}
	// Additive bias: the mean residual against consensus is an unbiased
	// estimate of the device's remaining calibration offset (honest noise
	// averages out across cells). The gain schedule is sample-mean-like
	// early (1, 1/2, 1/3, ...) so a constant offset is learned almost
	// immediately, floored at the EWMA gain so the estimate keeps tracking
	// late drift. Bounded so a malicious device cannot bank an absurd
	// "calibration".
	d.BiasObs++
	gain := biasGain
	if g := 1 / float64(d.BiasObs); g > gain {
		gain = g
	}
	mean := st.resSum / float64(st.consensus)
	d.BiasRad += gain * mean
	if d.BiasRad > maxBiasRad {
		d.BiasRad = maxBiasRad
	} else if d.BiasRad < -maxBiasRad {
		d.BiasRad = -maxBiasRad
	}
}

// RobustAccumulator maintains the cloud-stage fusion of FuseProfiles (Eq. (6)
// applied across vehicles) incrementally, with each submission's per-cell
// terms scaled by a bounded-influence weight computed against the consensus
// at admission time:
//
//	wi[c] = ρ(device) · ψ(z[c]) · 1/Var[c]
//	cw[c] = wi[c] · clamp(θ_sub[c] − bias, consensus ± ClampRad)
//
// where z[c] = (θ_sub − θ̄)/√(Var + U) is the standardized residual against
// the current fused cell, ψ is the policy's weight function (Huber or hard
// trim), and ρ is the submitting device's reputation weight. The accumulator
// keeps the per-cell running totals Σ wi and Σ cw, so AddDevice is O(cells)
// and Fused materializes the profile from the totals in O(cells), with no
// batch fuse.
//
// The weights are *frozen* at AddDevice time — this is a sequential (online)
// robust estimator. Freezing is what keeps the accumulator's complexity and
// determinism guarantees intact: AddDevice stays O(cells), eviction rebuilds
// are pure additions of precomputed terms in arrival order (bit-reproducible;
// eviction never subtracts, since floating-point subtraction would drift),
// and the same submission sequence always produces the bit-identical map, on
// the direct path or through the write coalescer.
//
// A bounded window keeps each retained submission's terms as a row, in a
// ring whose oldest row is at head once the window is full. While the window
// fills, each row is one exact-size block. From the first eviction on, ring
// slot i's terms sit in row i of two planes, wi and cw, of maxWindow × stride
// float64s each, so an evicting fold writes the newcomer's terms over the
// oldest slot in place and re-adds the window from contiguous memory. A row
// longer than the stride keeps a block of its own. The stride is the longest
// retained row that keeps the planes within twice the retained terms, so one
// long submission never inflates the planes. An unbounded window never
// evicts, so it keeps no rows.
//
// Under PolicyNaive the weight machinery is bypassed entirely (wi = 1/Var,
// cw = wi·θ, no bias subtraction), so the output is bit-identical to
// FuseProfiles over the retained window — Float64bits-equal, asserted by
// tests.
//
// Not safe for concurrent use; callers provide locking. The accumulator keeps
// no reference to an added profile.
type RobustAccumulator struct {
	policy    FusionPolicy
	maxWindow int // retention cap; <= 0 means unbounded

	spacing float64
	subs    int // retained submissions

	// Bounded windows only: the retained rows in arrival order, a ring
	// whose oldest row is at head once the window is full, and the planes
	// (nil until the first eviction) whose row i holds ring slot i's terms.
	rows    []termRow
	head    int
	stride  int
	wi, cw  []float64
	scratch []float64 // unbounded windows: one submission's terms, reused

	cells       int
	sumInv      []float64 // Σ wi[c] over the window
	sumWeighted []float64 // Σ cw[c] over the window
	nSub        []int32   // contributions with Var[c] > 0, for MinConsensus
}

// termRow is one retained submission's frozen terms: in its ring slot's plane
// row, or in block when it has one (while the window fills, and when the row
// is longer than the stride).
type termRow struct {
	n     int       // cells
	gaps  []int32   // cells below n with Var <= 0 (zero terms, not in nSub)
	block []float64 // wi then cw, n each, when the row is not in the planes
}

// NewRobustAccumulator returns an empty accumulator retaining at most
// maxWindow submissions (<= 0 for unbounded) and fusing under the given
// policy (zero value = naive).
func NewRobustAccumulator(maxWindow int, policy FusionPolicy) *RobustAccumulator {
	return &RobustAccumulator{maxWindow: maxWindow, policy: policy.WithDefaults()}
}

// Len returns the number of retained submissions.
func (a *RobustAccumulator) Len() int { return a.subs }

// Spacing returns the grid spacing, or 0 while empty.
func (a *RobustAccumulator) Spacing() float64 {
	if a.subs == 0 {
		return 0
	}
	return a.spacing
}

// AddDevice folds one submission from the given device into the running
// totals, evicting the oldest retained submission first when the window is
// full. dev may be nil (anonymous submission: full weight, no bias, no
// reputation update). The device's reputation and bias are updated from the
// submission's agreement with the pre-existing consensus — under every
// policy, so reputations are observable even while fusing naively — but only
// robust policies *apply* them to the fusion weights.
func (a *RobustAccumulator) AddDevice(p *Profile, dev *DeviceState) error {
	_, err := a.AddDeviceReport(p, dev)
	return err
}

// AddDeviceReport is AddDevice returning the fold's robustness report.
func (a *RobustAccumulator) AddDeviceReport(p *Profile, dev *DeviceState) (FoldReport, error) {
	if p == nil || p.Len() == 0 {
		return FoldReport{}, errors.New("fusion: empty profile")
	}
	if a.subs == 0 {
		a.spacing = p.SpacingM
	} else if math.Abs(p.SpacingM-a.spacing) > 1e-9 {
		return FoldReport{}, fmt.Errorf("fusion: profile spacing %v != %v", p.SpacingM, a.spacing)
	}
	start := time.Now()
	obsAccAdds.Inc()

	// Where the terms go: the evicted slot's plane row when they fit it, a
	// new block otherwise, scratch when nothing is kept.
	n := p.Len()
	evict := a.maxWindow > 0 && a.subs == a.maxWindow
	var wi, cw, block []float64
	switch {
	case evict && n <= a.stride:
		off := a.head * a.stride
		wi, cw = a.wi[off:off+n], a.cw[off:off+n]
	case a.maxWindow > 0:
		block = make([]float64, 2*n)
		wi, cw = block[:n], block[n:]
	default:
		if cap(a.scratch) < 2*n {
			a.scratch = make([]float64, 2*n)
		}
		wi, cw = a.scratch[:n], a.scratch[n:2*n]
	}
	st, gaps := a.terms(p, dev, wi, cw)
	row := termRow{n: n, gaps: gaps, block: block}

	rep := FoldReport{
		ConsensusCells: st.consensus,
		AgreeCells:     st.agree,
		Downweighted:   st.downweighted,
		Trimmed:        st.trimmed,
		Clamped:        st.clamped,
		Reputation:     1,
	}
	if dev != nil {
		dev.observe(st)
		rep.Reputation = dev.Reputation
	}
	if evict {
		// The oldest row is retired for the newcomer's. The MinConsensus
		// counts are integers, so they move incrementally: out with the old
		// row's covered cells, in with the new row's.
		old := &a.rows[a.head]
		a.count(old.n, old.gaps, -1)
		a.count(n, gaps, 1)
		*old = row
		a.head = (a.head + 1) % len(a.rows)
		a.rebuild()
	} else {
		a.accumulate(wi, cw, gaps)
		if a.maxWindow > 0 {
			a.rows = append(a.rows, row)
		}
		a.subs++
	}
	obsRobustAddSeconds[a.policy.Policy].Observe(time.Since(start).Seconds())
	return rep, nil
}

// terms writes the submission's frozen per-cell terms into wi and cw (one
// entry per profile cell) against the current consensus, and returns the
// agreement stats for the device update plus the cells it leaves uncovered
// (Var <= 0: zero terms). Under PolicyNaive the terms are exactly the batch
// fuse's (inv = 1/Var, w = inv·grade) — same operands, same IEEE results.
func (a *RobustAccumulator) terms(p *Profile, dev *DeviceState, wi, cw []float64) (foldStats, []int32) {
	var st foldStats
	var gaps []int32

	robust := a.policy.Robust()
	rho, bias := 1.0, 0.0
	if robust && dev != nil {
		rho = dev.weight(a.policy.MinWeight)
		bias = dev.BiasRad
	}
	// Hoist every policy field out of the loop: Policy is a string, and a
	// per-cell switch on it would pay a string compare per cell.
	huber := a.policy.Policy == PolicyHuber
	huberK := a.policy.HuberK
	k2 := huberK * huberK
	tz2 := a.policy.TrimZ * a.policy.TrimZ
	clamp := a.policy.ClampRad
	minC := int32(a.policy.MinConsensus)
	wantStats := dev != nil

	// Counter increments are atomic RMWs; batch them per fold rather than
	// paying one per fired cell (a biased submission fires on most of its
	// cells, which would dominate the fold's cost).

	for c := range wi {
		if p.Var[c] <= 0 {
			// Same skip rule as FuseProfiles.
			wi[c], cw[c] = 0, 0
			gaps = append(gaps, int32(c))
			continue
		}
		inv := 1 / p.Var[c]
		g := p.GradeRad[c]

		// Consensus lookup: established once MinConsensus prior
		// contributions cover the cell. Read before this submission is
		// folded in, so a device never scores against itself.
		var theta, u float64
		established := false
		if c < a.cells && a.nSub[c] >= minC && a.sumInv[c] > 0 {
			u = 1 / a.sumInv[c] // one reciprocal serves both Eq. (6b) terms
			theta = a.sumWeighted[c] * u
			established = true
		}

		if !robust {
			// Naive policy: the exact batch-fuse arithmetic, frozen.
			wi[c] = inv
			cw[c] = inv * g
			if wantStats && established {
				r := g - theta
				st.consensus++
				if r*r <= agreeZ2*(p.Var[c]+u) {
					st.agree++
				}
				st.resSum += r
			}
			continue
		}

		// Robust policies: bias-correct, standardize against consensus,
		// weight and clamp.
		gc := g
		if bias != 0 {
			gc = g - bias
		}
		if !established {
			// No consensus yet: fuse at reputation weight only.
			w := rho * inv
			wi[c] = w
			cw[c] = w * gc
			continue
		}
		// Standardized-residual tests in squared form — rr vs z²·denom — so
		// inlier cells (the common case on a healthy fleet) cost multiplies
		// only; the divide and sqrt are reserved for actual outliers.
		r := gc - theta
		rr := r * r
		denom := p.Var[c] + u
		if wantStats {
			st.consensus++
			if rr <= agreeZ2*denom {
				st.agree++
			}
			st.resSum += r
		}
		w := 1.0
		if huber {
			if rr > k2*denom {
				w = huberK * math.Sqrt(denom/rr) // k/|z|
				st.fired = true
				st.downweighted++
			}
		} else if rr > tz2*denom { // trimmed
			st.fired = true
			st.trimmed++
			wi[c], cw[c] = 0, 0 // the cell contributes nothing
			continue
		}
		gEff := gc
		if r > clamp {
			gEff = theta + clamp
			st.fired = true
			st.clamped++
		} else if r < -clamp {
			gEff = theta - clamp
			st.fired = true
			st.clamped++
		}
		w = rho * w * inv
		wi[c] = w
		cw[c] = w * gEff
	}
	if st.downweighted > 0 {
		obsRobustDownweighted.Add(st.downweighted)
	}
	if st.trimmed > 0 {
		obsRobustTrimmed.Add(st.trimmed)
	}
	if st.clamped > 0 {
		obsRobustClamped.Add(st.clamped)
	}
	return st, gaps
}

// accumulate folds one submission's terms into the totals, growing the grid
// as needed.
func (a *RobustAccumulator) accumulate(wi, cw []float64, gaps []int32) {
	n := len(wi)
	if n > a.cells {
		a.sumInv = growZero(a.sumInv, n)
		a.sumWeighted = growZero(a.sumWeighted, n)
		a.cells = n
	}
	addTerms(a.sumInv, a.sumWeighted, wi, cw)
	a.count(n, gaps, 1)
}

// count moves the MinConsensus counts of a row's covered cells by d,
// growing them to the row's length.
func (a *RobustAccumulator) count(n int, gaps []int32, d int32) {
	if n > len(a.nSub) {
		a.nSub = growZero(a.nSub, n)
	}
	for c := range a.nSub[:n] {
		a.nSub[c] += d
	}
	for _, c := range gaps {
		a.nSub[c] -= d
	}
}

// addTerms adds a row's terms to the totals cell by cell. A skipped cell's
// terms are +0, and a running sum that starts at +0 is never −0, so adding
// them leaves the totals bit-identical to skipping the cell.
func addTerms(sumInv, sumW, wi, cw []float64) {
	sumInv, sumW, cw = sumInv[:len(wi)], sumW[:len(wi)], cw[:len(wi)]
	for c, w := range wi {
		sumInv[c] += w
		sumW[c] += cw[c]
	}
}

// row returns the terms of ring slot i.
func (a *RobustAccumulator) row(i int) (wi, cw []float64) {
	r := &a.rows[i]
	if r.block != nil {
		return r.block[:r.n], r.block[r.n : 2*r.n]
	}
	off := i * a.stride
	return a.wi[off : off+r.n], a.cw[off : off+r.n]
}

// rebuild recomputes the totals from the rows in arrival order — the same
// additions, in the same order, as replaying the retained window, so the
// post-eviction state is bit-identical to it. It first re-lays the planes
// when a row is longer than the stride or the planes have grown past four
// times the retained terms.
func (a *RobustAccumulator) rebuild() {
	obsAccRebuilds.Inc()
	cells, total := 0, 0
	for i := range a.rows {
		cells = max(cells, a.rows[i].n)
		total += a.rows[i].n
	}
	if cells > a.stride || a.maxWindow*a.stride > 4*total {
		a.fitPlanes(total)
	}
	a.cells = cells
	// Counts past the longest row are all zero. Totals more than four times
	// the grid, left by a long row that has gone, give their memory back.
	if a.nSub = a.nSub[:cells]; cap(a.nSub) > 4*cells {
		a.nSub = slices.Clone(a.nSub)
	}
	a.sumInv = zeroed(a.sumInv, cells)
	a.sumWeighted = zeroed(a.sumWeighted, cells)
	for k := range a.rows {
		wi, cw := a.row((a.head + k) % len(a.rows))
		addTerms(a.sumInv, a.sumWeighted, wi, cw)
	}
}

// fitPlanes sets the stride to the longest row that keeps the planes within
// twice the retained terms (maxWindow × stride <= 2 × total cells) and, when
// that shrinks it or grows it by at least a quarter, moves every row into
// fresh planes; a row longer than the new stride gets a block of its own.
// Growing by quarters bounds the re-lays of rows that lengthen a cell at a
// time to a logarithmic number. Because some row is never longer than the
// mean, the stride is at least 1.
func (a *RobustAccumulator) fitPlanes(total int) {
	stride := 0
	for i := range a.rows {
		if n := a.rows[i].n; n > stride && a.maxWindow*n <= 2*total {
			stride = n
		}
	}
	if stride == a.stride || (stride > a.stride && 4*stride < 5*a.stride) {
		return
	}
	wi := make([]float64, a.maxWindow*stride)
	cw := make([]float64, a.maxWindow*stride)
	for i := range a.rows {
		r := &a.rows[i]
		rwi, rcw := a.row(i)
		switch {
		case r.n <= stride:
			copy(wi[i*stride:], rwi)
			copy(cw[i*stride:], rcw)
			r.block = nil
		case r.block == nil:
			r.block = slices.Concat(rwi, rcw)
		}
	}
	a.wi, a.cw, a.stride = wi, cw, stride
}

// Fused materializes the fused profile from the running totals: O(cells), no
// batch fuse. The result is freshly allocated; under PolicyNaive it is
// bit-identical to FuseProfiles over the retained window.
func (a *RobustAccumulator) Fused() (*Profile, error) {
	if a.subs == 0 {
		return nil, errors.New("fusion: no profiles")
	}
	out := &Profile{
		SpacingM: a.spacing,
		S:        make([]float64, a.cells),
		GradeRad: make([]float64, a.cells),
		Var:      make([]float64, a.cells),
	}
	for c := 0; c < a.cells; c++ {
		out.S[c] = float64(c) * a.spacing
		if a.sumInv[c] == 0 {
			// No (untrimmed) submission covers this cell; carry forward,
			// exactly as the batch fuse does.
			if c > 0 {
				out.GradeRad[c] = out.GradeRad[c-1]
				out.Var[c] = out.Var[c-1]
			}
			continue
		}
		u := 1 / a.sumInv[c] // Eq. (6b)
		out.GradeRad[c] = u * a.sumWeighted[c]
		out.Var[c] = u
	}
	return out, nil
}

// growZero extends s to length n, preserving existing totals or counts and
// zero-filling the new cells.
func growZero[T float64 | int32](s []T, n int) []T {
	if cap(s) >= n {
		old := len(s)
		s = s[:n]
		clear(s[old:])
		return s
	}
	out := make([]T, n)
	copy(out, s)
	return out
}

// zeroed returns s resized to length n with every cell zero, reusing the
// backing array unless it is too small or more than four times too big.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n || cap(s) > 4*n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

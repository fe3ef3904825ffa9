package cloud

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"roadgrade/internal/core"
	"roadgrade/internal/fusion"
	"roadgrade/internal/sensors"
)

// realisticProfile builds a paper-shaped submission: a smooth terrain
// signal plus per-cell sensor noise, with the constant per-segment variance
// a device derives from its noise model.
func realisticProfile(rng *rand.Rand, cells int) *fusion.Profile {
	p := &fusion.Profile{
		SpacingM: 5,
		S:        make([]float64, cells),
		GradeRad: make([]float64, cells),
		Var:      make([]float64, cells),
	}
	noise := 1e-3 * (0.5 + rng.Float64())
	for i := 0; i < cells; i++ {
		p.S[i] = float64(i) * 5
		p.GradeRad[i] = 0.03*math.Sin(float64(i)/40) + noise*rng.NormFloat64()
		p.Var[i] = noise * noise
	}
	return p
}

// TestFusedLateStartUploads: tracks that start 40 m into the road reach no
// leading cell of the fused profile. Those cells take the first covered
// cell's grade and variance, so every variance is positive and both upload
// codecs accept the profile.
func TestFusedLateStartUploads(t *testing.T) {
	const lengthM, startM, spacingM = 200.0, 40.0, 5.0
	rng := rand.New(rand.NewSource(5))
	var tracks []*core.Track
	for _, src := range []sensors.VelocitySource{sensors.SourceGPS, sensors.SourceSpeedometer, sensors.SourceCANBus} {
		tr := &core.Track{Source: src}
		for s := startM; s <= lengthM; s++ {
			tr.T = append(tr.T, s/10)
			tr.S = append(tr.S, s)
			tr.GradeRad = append(tr.GradeRad, 0.03+0.002*rng.NormFloat64())
			tr.Var = append(tr.Var, 4e-6)
		}
		tracks = append(tracks, tr)
	}
	prof, err := fusion.FuseTracks(tracks, spacingM, lengthM)
	if err != nil {
		t.Fatalf("fuse: %v", err)
	}
	first := int(startM / spacingM)
	for c := range prof.Var {
		if !(prof.Var[c] > 0) {
			t.Fatalf("cell %d: variance %v", c, prof.Var[c])
		}
		if c < first && (prof.GradeRad[c] != prof.GradeRad[first] || prof.Var[c] != prof.Var[first]) {
			t.Errorf("leading cell %d: (%v, %v), want the first covered cell's (%v, %v)",
				c, prof.GradeRad[c], prof.Var[c], prof.GradeRad[first], prof.Var[first])
		}
	}
	if _, err := FromProfile(prof).toProfile(); err != nil {
		t.Errorf("JSON profile: %v", err)
	}
	data, err := EncodeBatchBinary([]BatchItem{{RoadID: "r", Profile: prof}})
	if err != nil {
		t.Fatalf("binary encode: %v", err)
	}
	if _, err := DecodeBatchBinary(data); err != nil {
		t.Errorf("binary decode: %v", err)
	}
}

func testBatch(rng *rand.Rand, n, cells int) []BatchItem {
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{
			RoadID:  roadName(i % 7),
			Key:     "",
			Profile: realisticProfile(rng, cells),
		}
	}
	items[0].Key = "key-zero"
	return items
}

func roadName(i int) string { return "road-" + string(rune('a'+i)) }

// TestBinaryCodecRoundTrip checks decode(encode(x)) preserves everything up
// to the documented quantization, and that re-encoding a decoded batch is
// byte-identical (the lattice is a fixed point).
func TestBinaryCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := testBatch(rng, 12, 300)
	enc, err := EncodeBatchBinary(items)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBatchBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(dec), len(items))
	}
	for i := range items {
		if dec[i].RoadID != items[i].RoadID || dec[i].Key != items[i].Key {
			t.Fatalf("item %d identity mismatch: %+v", i, dec[i])
		}
		in, out := items[i].Profile, dec[i].Profile
		if out.SpacingM != in.SpacingM || out.Len() != in.Len() {
			t.Fatalf("item %d shape mismatch", i)
		}
		for c := range in.GradeRad {
			if d := math.Abs(out.GradeRad[c] - in.GradeRad[c]); d > gradeQuantum {
				t.Fatalf("item %d cell %d grade off lattice by %g", i, c, d)
			}
			if d := math.Abs(out.Var[c] - in.Var[c]); d > varQuantum {
				t.Fatalf("item %d cell %d var off lattice by %g", i, c, d)
			}
			if out.Var[c] <= 0 {
				t.Fatalf("item %d cell %d decoded var %v not positive", i, c, out.Var[c])
			}
		}
	}
	// Idempotence: the decoded batch re-encodes to the same bytes.
	enc2, err := EncodeBatchBinary(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("re-encoding a decoded batch changed the bytes")
	}
}

// TestBinaryCodecSizeRatio pins the headline claim: the binary codec is at
// least 5x smaller than the JSON batch form on realistic submissions.
func TestBinaryCodecSizeRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := testBatch(rng, 32, 200)
	bin, err := EncodeBatchBinary(items)
	if err != nil {
		t.Fatal(err)
	}
	dto := batchRequestDTO{Items: make([]batchItemDTO, len(items))}
	for i := range items {
		dto.Items[i] = batchItemDTO{RoadID: items[i].RoadID, Key: items[i].Key, Profile: FromProfile(items[i].Profile)}
	}
	js, err := json.Marshal(dto)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(js)) / float64(len(bin))
	t.Logf("json %d B, binary %d B, ratio %.2fx (%.1f B/cell binary)",
		len(js), len(bin), ratio, float64(len(bin))/float64(32*200))
	if ratio < 5 {
		t.Errorf("binary codec only %.2fx smaller than JSON, want >= 5x", ratio)
	}
}

// TestBinaryCodecRejects covers the decode guard rails.
func TestBinaryCodecRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	good, err := EncodeBatchBinary(testBatch(rng, 2, 50))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"short":         good[:3],
		"bad magic":     append([]byte("XXX\x01"), good[4:]...),
		"bad version":   append([]byte("RGB\x09"), good[4:]...),
		"truncated":     good[:len(good)-3],
		"trailing junk": append(append([]byte{}, good...), 0xff),
	}
	for name, data := range cases {
		if _, err := DecodeBatchBinary(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

// TestBinaryCodecEncodeValidation checks the encoder applies the same door
// rules as the JSON path plus the codec's variance ceiling.
func TestBinaryCodecEncodeValidation(t *testing.T) {
	mk := func(mut func(*fusion.Profile)) []BatchItem {
		p := realisticProfile(rand.New(rand.NewSource(1)), 10)
		mut(p)
		return []BatchItem{{RoadID: "r", Profile: p}}
	}
	cases := map[string][]BatchItem{
		"empty batch":   {},
		"nil profile":   {{RoadID: "r"}},
		"empty road id": {{RoadID: "", Profile: realisticProfile(rand.New(rand.NewSource(1)), 4)}},
		"long key":      {{RoadID: "r", Key: strings.Repeat("k", maxKeyLen+1), Profile: realisticProfile(rand.New(rand.NewSource(1)), 4)}},
		"nan grade":     mk(func(p *fusion.Profile) { p.GradeRad[3] = math.NaN() }),
		"steep grade":   mk(func(p *fusion.Profile) { p.GradeRad[3] = 1.5 }),
		"zero variance": mk(func(p *fusion.Profile) { p.Var[3] = 0 }),
		"huge variance": mk(func(p *fusion.Profile) { p.Var[3] = maxEncodableVar * 2 }),
		"inf spacing":   mk(func(p *fusion.Profile) { p.SpacingM = math.Inf(1) }),
		"length mismatch": mk(func(p *fusion.Profile) {
			p.Var = p.Var[:len(p.Var)-1]
		}),
	}
	for name, items := range cases {
		if _, err := EncodeBatchBinary(items); err == nil {
			t.Errorf("%s: encoder accepted invalid input", name)
		}
	}
}

// TestZigzag pins the varint mapping.
func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}

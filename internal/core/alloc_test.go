package core

import (
	"math"
	"runtime/debug"
	"testing"

	"roadgrade/internal/road"
	"roadgrade/internal/sensors"
	"roadgrade/internal/smoothing"
)

// TestPhoneAllocations pins the phone kernels' allocations: the grade filter
// and the LOESS fit run per sensor record and allocate nothing, so a push
// allocates nothing, a smoothing pass allocates only its output, and a track
// estimate allocates a fixed number of per-trace slices however long the
// drive.
func TestPhoneAllocations(t *testing.T) {
	// A GC cycle wakes runtime helpers that allocate on goroutines of their
	// own, which AllocsPerRun counts too, and longer traces run more cycles.
	// The collector stays off while counting; the runs allocate a few MB.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r, err := road.StraightRoad("allocs", 1500, road.Deg(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, trace := simulate(t, r, 13, 0, 5)

	t.Run("streaming-push", func(t *testing.T) {
		st, err := NewStreaming(Config{}, r.Line(), sensors.SourceCANBus, trace.DT)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Push(trace.Records[0]); err != nil {
			t.Fatal(err)
		}
		rec := trace.Records[1]
		spike := rec
		spike.AccelLong = 1e5 // m/s²: v passes 150 m/s, so every push resets
		for _, tc := range []struct {
			name string
			rec  sensors.Record
		}{{"healthy", rec}, {"resetting", spike}} {
			resets := st.resets
			if allocs := testing.AllocsPerRun(100, func() {
				if _, err := st.Push(tc.rec); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s push allocates %v times, want 0", tc.name, allocs)
			}
			if reset := st.resets > resets; reset != (tc.name == "resetting") {
				t.Errorf("%s pushes reset the filter: %v", tc.name, reset)
			}
		}
	})

	t.Run("loess-smooth", func(t *testing.T) {
		l, err := smoothing.NewLoess(0.1)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]float64, 400)
		ys := make([]float64, len(xs))
		for i := range xs {
			xs[i] = float64(i) * 0.05
			ys[i] = math.Sin(xs[i])
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := l.Smooth(xs, ys); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("Smooth allocates %v times, want 1 (its output)", allocs)
		}
	})

	t.Run("estimate-track", func(t *testing.T) {
		p, err := NewPipeline(Config{})
		if err != nil {
			t.Fatal(err)
		}
		adj, err := p.Adjust(trace, r.Line())
		if err != nil {
			t.Fatal(err)
		}
		half := &sensors.Trace{DT: trace.DT, Records: trace.Records[:len(trace.Records)/2]}
		halfAdj := &Adjusted{SteerRates: adj.SteerRates[:len(half.Records)], Detections: adj.Detections, S: adj.S[:len(half.Records)]}
		for _, src := range sensors.AllSources() {
			allocs := func(tr *sensors.Trace, a *Adjusted) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := p.EstimateTrack(tr, a, src); err != nil {
						t.Fatal(err)
					}
				})
			}
			if short, long := allocs(half, halfAdj), allocs(trace, adj); short != long {
				t.Errorf("%v track: %v allocations over %d records, %v over %d", src, short, len(half.Records), long, len(trace.Records))
			}
		}
	})
}

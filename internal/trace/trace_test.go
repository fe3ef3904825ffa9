package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"roadgrade/internal/road"
	"roadgrade/internal/sensors"
	"roadgrade/internal/vehicle"
)

func sampleTrace(t *testing.T) *sensors.Trace {
	t.Helper()
	r, err := road.StraightRoad("io", 300, road.Deg(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	trip, err := vehicle.SimulateTrip(vehicle.TripConfig{
		Road:   r,
		Driver: vehicle.DefaultDriver(12),
		Rng:    rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sensors.Sample(trip, sensors.DefaultConfig(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCSVRoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("records %d, want %d", len(got.Records), len(tr.Records))
	}
	if got.DT != tr.DT {
		t.Errorf("dt = %v, want %v", got.DT, tr.DT)
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

// TestWriteNilTrace: nil is a programmer error, reported as ErrNilTrace.
func TestWriteNilTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); !errors.Is(err, ErrNilTrace) {
		t.Errorf("WriteCSV(nil) = %v, want ErrNilTrace", err)
	}
}

// TestWriteEmptyTrace: a trace with zero records is a valid no-op — CSV
// writes the header row only — so an archiving job that captured nothing
// still produces well-formed output.
func TestWriteEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, &sensors.Trace{}); err != nil {
		t.Fatalf("WriteCSV(empty) = %v, want header-only success", err)
	}
	if got, want := buf.String(), strings.Join(csvHeader, ",")+"\n"; got != want {
		t.Errorf("empty CSV = %q, want header only %q", got, want)
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"header-only", strings.Join(csvHeader, ",") + "\n"},
		{"one-row", strings.Join(csvHeader, ",") + "\n0,0,0,0,0,0,false,0,0,0,0\n"},
		{"bad-header", "a,b\n1,2\n3,4\n"},
		{"wrong-column", "t,x,gyro_yaw,speedometer,can_speed,baro_alt,gps_valid,gps_e,gps_n,gps_alt,gps_speed\n" +
			"0,0,0,0,0,0,false,0,0,0,0\n0.05,0,0,0,0,0,false,0,0,0,0\n"},
		{"bad-float", strings.Join(csvHeader, ",") + "\n" +
			"x,0,0,0,0,0,false,0,0,0,0\n0.05,0,0,0,0,0,false,0,0,0,0\n"},
		{"bad-bool", strings.Join(csvHeader, ",") + "\n" +
			"0,0,0,0,0,0,maybe,0,0,0,0\n0.05,0,0,0,0,0,false,0,0,0,0\n"},
		{"non-increasing", strings.Join(csvHeader, ",") + "\n" +
			"1,0,0,0,0,0,false,0,0,0,0\n1,0,0,0,0,0,false,0,0,0,0\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.in)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestCSVIsPipelineCompatible(t *testing.T) {
	// A round-tripped trace must still drive the velocity extraction.
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range sensors.AllSources() {
		if _, err := got.Velocity(src); err != nil {
			t.Errorf("source %v after round trip: %v", src, err)
		}
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	r, err := road.StraightRoad("io", 300, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	trip, err := vehicle.SimulateTrip(vehicle.TripConfig{
		Road: r, Driver: vehicle.DefaultDriver(12), Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sensors.Sample(trip, sensors.DefaultConfig(), rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

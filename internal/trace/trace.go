// Package trace serializes sensor traces as CSV (one row per tick,
// spreadsheet-friendly), so real phone logs can be plugged into the pipeline
// and simulated traces can be archived.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"roadgrade/internal/sensors"
)

// csvHeader is the canonical column order.
var csvHeader = []string{
	"t", "accel_long", "gyro_yaw",
	"raw_accel_x", "raw_accel_y", "raw_accel_z",
	"raw_gyro_x", "raw_gyro_y", "raw_gyro_z",
	"speedometer", "can_speed", "can_torque", "baro_alt",
	"gps_valid", "gps_e", "gps_n", "gps_alt", "gps_speed",
}

// ErrNilTrace marks a nil *sensors.Trace passed to a writer — a programmer
// error, distinct from a valid empty trace (zero records), which writes the
// header/envelope only.
var ErrNilTrace = errors.New("trace: nil trace")

// WriteCSV writes the trace's sensor records (not ground truth) as CSV. A
// nil trace returns ErrNilTrace; an empty (zero-record) trace is a valid
// no-op that writes the header row only.
func WriteCSV(w io.Writer, tr *sensors.Trace) error {
	if tr == nil {
		return ErrNilTrace
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	row := make([]string, len(csvHeader))
	for i, rec := range tr.Records {
		row[0] = formatF(rec.T)
		row[1] = formatF(rec.AccelLong)
		row[2] = formatF(rec.GyroYaw)
		row[3] = formatF(rec.RawAccelX)
		row[4] = formatF(rec.RawAccelY)
		row[5] = formatF(rec.RawAccelZ)
		row[6] = formatF(rec.RawGyroX)
		row[7] = formatF(rec.RawGyroY)
		row[8] = formatF(rec.RawGyroZ)
		row[9] = formatF(rec.Speedometer)
		row[10] = formatF(rec.CANSpeed)
		row[11] = formatF(rec.CANTorque)
		row[12] = formatF(rec.BaroAlt)
		row[13] = strconv.FormatBool(rec.GPSValid)
		row[14] = formatF(rec.GPSE)
		row[15] = formatF(rec.GPSN)
		row[16] = formatF(rec.GPSAlt)
		row[17] = formatF(rec.GPSSpeed)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flushing CSV: %w", err)
	}
	return nil
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ReadCSV parses a CSV written by WriteCSV (or an external log in the same
// schema) into a trace. The sample interval is inferred from the first two
// timestamps.
func ReadCSV(r io.Reader) (*sensors.Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV: %w", err)
	}
	if len(rows) < 3 {
		return nil, errors.New("trace: CSV needs a header and at least two rows")
	}
	if len(rows[0]) != len(csvHeader) {
		return nil, fmt.Errorf("trace: header has %d columns, want %d", len(rows[0]), len(csvHeader))
	}
	for i, name := range csvHeader {
		if rows[0][i] != name {
			return nil, fmt.Errorf("trace: column %d is %q, want %q", i, rows[0][i], name)
		}
	}
	tr := &sensors.Trace{Records: make([]sensors.Record, 0, len(rows)-1)}
	for n, row := range rows[1:] {
		rec, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", n+1, err)
		}
		tr.Records = append(tr.Records, rec)
	}
	tr.DT = tr.Records[1].T - tr.Records[0].T
	if tr.DT <= 0 {
		return nil, fmt.Errorf("trace: non-increasing timestamps (dt=%v)", tr.DT)
	}
	return tr, nil
}

func parseRow(row []string) (sensors.Record, error) {
	var rec sensors.Record
	fields := []*float64{
		&rec.T, &rec.AccelLong, &rec.GyroYaw,
		&rec.RawAccelX, &rec.RawAccelY, &rec.RawAccelZ,
		&rec.RawGyroX, &rec.RawGyroY, &rec.RawGyroZ,
		&rec.Speedometer, &rec.CANSpeed, &rec.CANTorque, &rec.BaroAlt,
		nil, &rec.GPSE, &rec.GPSN, &rec.GPSAlt, &rec.GPSSpeed,
	}
	for i, dst := range fields {
		if dst == nil {
			valid, err := strconv.ParseBool(row[i])
			if err != nil {
				return rec, fmt.Errorf("column %s: %w", csvHeader[i], err)
			}
			rec.GPSValid = valid
			continue
		}
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			return rec, fmt.Errorf("column %s: %w", csvHeader[i], err)
		}
		*dst = v
	}
	return rec, nil
}

// Package geo provides the geographic primitives the system needs: lat/lon
// handling, local East-North-Up projection, great-circle distances, bearings
// measured from the earth East direction (the convention of §III-A of the
// paper), and the §III-D road-segment direction formula used when building
// reference gradient profiles.
//
// Angles are radians unless a name says degrees. Headings are measured
// counter-clockwise from East, matching the paper's X_E (East) / Y_E axes.
package geo

import "math"

// EarthRadiusM is the mean earth radius in meters.
const EarthRadiusM = 6371008.8

// LatLon is a WGS-84 position in degrees.
type LatLon struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// HaversineM returns the great-circle distance between a and b in meters.
func HaversineM(a, b LatLon) float64 {
	lat1, lat2 := Radians(a.Lat), Radians(b.Lat)
	dLat := lat2 - lat1
	dLon := Radians(b.Lon - a.Lon)
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	return 2 * EarthRadiusM * math.Asin(math.Min(1, math.Sqrt(h)))
}

// ENU is a local tangent-plane coordinate: meters East and North of an
// origin. Up is carried separately as altitude where needed.
type ENU struct {
	E float64 `json:"e"`
	N float64 `json:"n"`
}

// Projector converts between LatLon and a local ENU frame anchored at an
// origin. The equirectangular approximation is accurate to centimeters over
// the city scales (tens of km) this project simulates.
type Projector struct {
	origin  LatLon
	cosLat0 float64
}

// NewProjector returns a projector anchored at origin.
func NewProjector(origin LatLon) *Projector {
	return &Projector{origin: origin, cosLat0: math.Cos(Radians(origin.Lat))}
}

// ToENU projects a position into the local frame.
func (p *Projector) ToENU(pos LatLon) ENU {
	return ENU{
		E: EarthRadiusM * Radians(pos.Lon-p.origin.Lon) * p.cosLat0,
		N: EarthRadiusM * Radians(pos.Lat-p.origin.Lat),
	}
}

// ToLatLon inverts ToENU.
func (p *Projector) ToLatLon(e ENU) LatLon {
	return LatLon{
		Lat: p.origin.Lat + Degrees(e.N/EarthRadiusM),
		Lon: p.origin.Lon + Degrees(e.E/(EarthRadiusM*p.cosLat0)),
	}
}

// PaperSegmentDirection is the §III-D formula arctan((λ_E-λ_S)/(φ_E-φ_S))
// computed exactly as printed, kept for fidelity with the reference-profile
// construction.
func PaperSegmentDirection(start, end LatLon) float64 {
	return math.Atan((end.Lon - start.Lon) / (end.Lat - start.Lat))
}

// WrapAngle normalizes an angle to (-π, π].
func WrapAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a > math.Pi {
		a -= 2 * math.Pi
	} else if a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// AngleDiff returns the signed smallest rotation from a to b in (-π, π].
func AngleDiff(a, b float64) float64 { return WrapAngle(b - a) }

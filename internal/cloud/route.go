package cloud

// The eco-routing endpoint: the cloud service doesn't just serve fused
// profiles back to vehicles, it answers the question the fused map exists
// for — "which way burns the least fuel?"
//
//	GET /v1/route?from=<node>&to=<node>&objective=<distance|time|fuel|co2|nox|co|hc|pm>&speed_kmh=<v>
//
// Routing is optional: a server without an attached engine answers 503.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/emission"
	"roadgrade/internal/obs"
)

// EnableRouting attaches an eco-routing engine, turning on GET /v1/route.
// Call before Handler()/serving; the engine is typically built over this
// server's own fused store (ecoroute.CloudSource{Store: s}), so routes follow
// the crowd-sourced gradient map as submissions refine it. Every fold that
// accepts a submission wakes the attached engine's publisher, which builds
// the next snapshot off the request path; a query that reads the new
// generation waits for that publish. Emission tables (EnableEmissions) read
// whichever engine is attached, so an engine that replaces one must cost the
// same network from the same store.
func (s *Server) EnableRouting(eng *ecoroute.Engine) {
	s.router = eng
	s.routeQueries = obs.Default.Counter("cloud_route_queries_total")
}

// RouteDTO is the wire form of an answered routing query.
type RouteDTO struct {
	From      int      `json:"from"`
	To        int      `json:"to"`
	Objective string   `json:"objective"`
	SpeedKmh  float64  `json:"speed_kmh"`
	RoadIDs   []string `json:"road_ids"`
	Nodes     []int    `json:"nodes"`
	Cost      float64  `json:"cost"`
	LengthM   float64  `json:"length_m"`
	TimeS     float64  `json:"time_s"`
	FuelGal   float64  `json:"fuel_gal"`
	CO2G      float64  `json:"co2_g"`
	// Operating-mode pollutant grams, filled for pollutant objectives
	// (nox/co/hc/pm); zero otherwise.
	COG   float64 `json:"co_g,omitempty"`
	NOxG  float64 `json:"nox_g,omitempty"`
	HCG   float64 `json:"hc_g,omitempty"`
	PM25G float64 `json:"pm25_g,omitempty"`
}

// fromPlan builds the wire form of a plan.
func fromPlan(p ecoroute.Plan) RouteDTO {
	return RouteDTO{
		From:      p.From,
		To:        p.To,
		Objective: p.Objective.String(),
		SpeedKmh:  p.SpeedKmh,
		RoadIDs:   p.RoadIDs,
		Nodes:     p.Nodes,
		Cost:      p.Cost,
		LengthM:   p.LengthM,
		TimeS:     p.TimeS,
		FuelGal:   p.FuelGal,
		CO2G:      p.CO2G,
		COG:       p.EmisG[emission.CO],
		NOxG:      p.EmisG[emission.NOx],
		HCG:       p.EmisG[emission.HC],
		PM25G:     p.EmisG[emission.PM25],
	}
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	if s.router == nil {
		httpError(w, http.StatusServiceUnavailable, errors.New("cloud: routing not enabled"))
		return
	}
	q := r.URL.Query()
	from, err := strconv.Atoi(q.Get("from"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("cloud: invalid from node %q", q.Get("from")))
		return
	}
	to, err := strconv.Atoi(q.Get("to"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("cloud: invalid to node %q", q.Get("to")))
		return
	}
	obj := ecoroute.Fuel
	if v := q.Get("objective"); v != "" {
		if obj, err = ecoroute.ParseObjective(v); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}
	speed := 40.0
	if v := q.Get("speed_kmh"); v != "" {
		if speed, err = strconv.ParseFloat(v, 64); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("cloud: invalid speed_kmh %q", v))
			return
		}
	}
	s.routeQueries.Inc()
	plan, err := s.router.Route(obj, speed, from, to)
	switch {
	case errors.Is(err, ecoroute.ErrUnknownNode), errors.Is(err, ecoroute.ErrNoPath):
		httpError(w, http.StatusNotFound, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, fromPlan(plan))
}

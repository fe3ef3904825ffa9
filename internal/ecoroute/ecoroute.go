// Package ecoroute is the routing subsystem that closes the loop the paper
// motivates: once road gradients are known (ground truth, or the cloud
// store's crowd-fused estimates), per-edge fuel consumption is predictable
// and routes can be planned to minimize gallons or emissions instead of
// meters or minutes — the question a fleet actually asks of the fused map.
//
// Architecture (DESIGN.md §9):
//
//   - Edge costs come from fuel.VSPParams.RateGPH integrated along each
//     edge's gradient profile at a cruise speed. Grade sign flips with travel
//     direction, so every directed edge gets its own cost, per cruise-speed
//     bucket (class-dependent speed factors make arterials faster than local
//     streets, so fastest and shortest genuinely differ).
//   - Cost tables are precomputed once and cached as immutable snapshots
//     stamped with the grade source's generation counters. A cloud
//     re-fusion bumps only the affected roads' generations, so a refresh
//     recomputes only those edges (cache hits/misses are exported metrics).
//   - Point-to-point queries run bidirectional Dijkstra with an admissible
//     ALT (A*, landmarks, triangle inequality) lower bound, bit-identical in
//     cost to plain Dijkstra; batched many-to-many queries fan one-to-all
//     searches across a bounded worker pool.
package ecoroute

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"roadgrade/internal/emission"
	"roadgrade/internal/fuel"
	"roadgrade/internal/road"
)

// Objective selects what a route minimizes.
type Objective int

const (
	// Distance minimizes travelled meters.
	Distance Objective = iota
	// Time minimizes travel time at class-adjusted cruise speeds.
	Time
	// Fuel minimizes gallons burned over the gradient profiles.
	Fuel
	// CO2 minimizes carbon dioxide emitted. Emissions are proportional to
	// fuel (§III-E: m = F·V), so the argmin path equals Fuel's; the
	// objective exists so costs and reports read in grams.
	CO2
	// NOx minimizes oxides of nitrogen under the operating-mode model
	// (internal/emission). Unlike CO2, pollutant rates are binned step
	// functions of power demand, so min-NOx routes genuinely diverge from
	// min-fuel on hills — steep pitches jump whole emission bins.
	NOx
	// CO minimizes carbon monoxide.
	CO
	// HC minimizes unburned hydrocarbons.
	HC
	// PM minimizes fine particulate matter (PM2.5).
	PM
)

// String returns the objective name.
func (o Objective) String() string {
	switch o {
	case Distance:
		return "distance"
	case Time:
		return "time"
	case Fuel:
		return "fuel"
	case CO2:
		return "co2"
	case NOx:
		return "nox"
	case CO:
		return "co"
	case HC:
		return "hc"
	case PM:
		return "pm"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Objectives lists every routing objective in stable order.
func Objectives() []Objective {
	return []Objective{Distance, Time, Fuel, CO2, NOx, CO, HC, PM}
}

// ParseObjective resolves an objective name (case-insensitive).
func ParseObjective(s string) (Objective, error) {
	switch strings.ToLower(s) {
	case "distance", "shortest":
		return Distance, nil
	case "time", "fastest":
		return Time, nil
	case "fuel", "eco":
		return Fuel, nil
	case "co2", "emission":
		return CO2, nil
	case "nox":
		return NOx, nil
	case "co":
		return CO, nil
	case "hc":
		return HC, nil
	case "pm", "pm25", "pm2.5":
		return PM, nil
	}
	return 0, fmt.Errorf("ecoroute: unknown objective %q (want distance | time | fuel | co2 | nox | co | hc | pm)", s)
}

// Search algorithms the engine can run point queries with. Both return
// plans whose costs are bit-identical to the plain Dijkstra reference; they
// differ in how much preprocessing they lean on.
const (
	// AlgALT is bidirectional Dijkstra with ALT landmark pruning — no
	// topology preprocessing beyond landmark distance tables, right for
	// city-scale graphs (PR 5).
	AlgALT = "alt"
	// AlgCCH is the customizable contraction hierarchy: the topology is
	// contracted once (metric-independent), per-objective weights are
	// customized over the contracted graph and re-customized incrementally
	// when the grade source's generation ticks, and queries run PQ-free
	// over the elimination tree — the country-scale configuration
	// (DESIGN.md §13).
	AlgCCH = "cch"
)

// ParseAlgorithm resolves a search-algorithm name (case-insensitive).
func ParseAlgorithm(s string) (string, error) {
	switch strings.ToLower(s) {
	case "", AlgALT:
		return AlgALT, nil
	case AlgCCH:
		return AlgCCH, nil
	}
	return "", fmt.Errorf("ecoroute: unknown algorithm %q (want alt | cch)", s)
}

// Config tunes the engine. The zero value selects the defaults.
type Config struct {
	// Algorithm selects the point-query search: AlgALT (default) or
	// AlgCCH. The Dijkstra reference is always available via RouteDijkstra.
	Algorithm string
	// SpeedsKmh are the cruise-speed buckets cost tables are built for;
	// queries snap to the nearest bucket. Default {30, 40, 50, 60}.
	SpeedsKmh []float64
	// SampleStepM is the arc-length step of the per-edge fuel integration
	// (default 5 m, the fusion grid spacing).
	SampleStepM float64
	// Landmarks is the ALT landmark count (default 8, clamped to the node
	// count). Zero uses the default; negative disables ALT pruning.
	Landmarks int
	// Params are the Eq. (7) VSP coefficients (default fuel.TableII()).
	Params fuel.VSPParams
	// Emission configures the operating-mode pollutant model behind the
	// NOx/CO/HC/PM objectives. The zero value selects the light-duty car
	// defaults (emission.ForVehicle(emission.Car)).
	Emission emission.Params
	// ClassSpeedFactor scales the cruise speed per road class — arterials
	// flow faster than local streets, which is what makes the fastest route
	// differ from the shortest. Defaults: arterial 1.25, collector 1.0,
	// local 0.85. Set all classes to 1 for a uniform-speed model.
	ClassSpeedFactor map[road.Class]float64
}

func (c Config) withDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = AlgALT
	}
	if len(c.SpeedsKmh) == 0 {
		c.SpeedsKmh = []float64{30, 40, 50, 60}
	}
	if c.SampleStepM <= 0 {
		c.SampleStepM = 5
	}
	if c.Landmarks == 0 {
		c.Landmarks = 8
	}
	if (c.Params == fuel.VSPParams{}) {
		c.Params = fuel.TableII()
	}
	c.Emission = c.Emission.WithDefaults()
	if c.ClassSpeedFactor == nil {
		c.ClassSpeedFactor = map[road.Class]float64{
			road.ClassArterial:  1.25,
			road.ClassCollector: 1.0,
			road.ClassLocal:     0.85,
		}
	}
	return c
}

// classFactor returns the speed factor for a class (1 when unconfigured).
func (c Config) classFactor(cls road.Class) float64 {
	if f, ok := c.ClassSpeedFactor[cls]; ok && f > 0 {
		return f
	}
	return 1
}

// Engine answers routing queries over one network and one grade source.
// Safe for concurrent use: queries run on immutable cost-table snapshots,
// refreshes build a new snapshot and swap it in.
type Engine struct {
	net *road.Network
	src GradeSource
	cfg Config

	// Dense graph: node IDs are mapped to [0, n) once at construction.
	// Adjacency is flat CSR (offsets + one edge-index array per direction)
	// so searches stream through contiguous memory instead of chasing
	// per-node slice headers.
	idx     map[int]int // node ID → dense index
	ids     []int       // dense index → node ID
	outOff  []int32     // CSR offsets: edges leaving dense node v are outArc[outOff[v]:outOff[v+1]]
	outArc  []int32
	inOff   []int32 // CSR offsets of incoming edges
	inArc   []int32
	edges   []*road.Edge
	tail    []int32 // per edge: dense From
	head    []int32 // per edge: dense To
	lengthM pagedRow[float64]
	sibling []int32 // opposite-direction edge index, -1 if none
	// roadEdges maps a road ID to the edges whose grades read the road: its
	// own edge first, then each opposite-direction edge that falls back on
	// its profile. The change feed names roads; these are what a refresh
	// recosts for them.
	roadEdges map[string][]int32

	// timeS[b][e] is edge e's traversal seconds at bucket b's class-adjusted
	// speed; fixed at construction (grades don't change time in this model).
	timeS []pagedRow[float64]

	mu  sync.Mutex // serializes refresh and landmark builds
	cur atomicTables

	// emisNewest[b] is the newest pollutant rows any snapshot built for
	// bucket b, with the stamp row they were built against: the next build
	// of that bucket, in whichever snapshot, starts from them.
	emisNewest []atomic.Pointer[emisRows]

	lmNodes []int32 // landmark node set (picked once, on the distance metric)
	lmMu    sync.Mutex
	lmCache map[lmKey]*landmarkTable

	// Customizable contraction hierarchy (Algorithm == AlgCCH): the
	// metric-independent contraction is built once on first use; customized
	// weight tables are cached per (metric, bucket) — cchW keys leave the
	// version 0 — like the ALT landmark tables, but re-fusions re-customize
	// incrementally.
	cchOnce  sync.Once
	cchG     *cch
	cchWMu   sync.Mutex
	cchW     map[lmKey]*cchSlot
	cchWork  arcWorklist  // re-customization worklist, reused under cchWMu
	cchPool  sync.Pool    // *cchScratch
	lastCust cchCustStats // most recent customization's stats (tests, metrics)
}

// NewEngine indexes the network and prepares (but does not yet fill) the
// cost tables; the first query triggers the initial build.
func NewEngine(net *road.Network, src GradeSource, cfg Config) (*Engine, error) {
	if net == nil || len(net.Nodes) == 0 {
		return nil, errors.New("ecoroute: empty network")
	}
	if src == nil {
		return nil, errors.New("ecoroute: nil grade source")
	}
	cfg = cfg.withDefaults()
	if _, err := ParseAlgorithm(cfg.Algorithm); err != nil {
		return nil, err
	}
	for _, s := range cfg.SpeedsKmh {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("ecoroute: invalid cruise speed %v km/h", s)
		}
	}

	e := &Engine{
		net:     net,
		src:     src,
		cfg:     cfg,
		idx:     make(map[int]int, len(net.Nodes)),
		ids:     make([]int, len(net.Nodes)),
		lmCache: make(map[lmKey]*landmarkTable),
		cchW:    make(map[lmKey]*cchSlot),

		emisNewest: make([]atomic.Pointer[emisRows], len(cfg.SpeedsKmh)),
	}
	for i, n := range net.Nodes {
		if _, dup := e.idx[n.ID]; dup {
			return nil, fmt.Errorf("ecoroute: duplicate node id %d", n.ID)
		}
		e.idx[n.ID] = i
		e.ids[i] = n.ID
	}
	nNodes := len(net.Nodes)
	e.edges = make([]*road.Edge, len(net.Edges))
	e.tail = make([]int32, len(net.Edges))
	e.head = make([]int32, len(net.Edges))
	e.lengthM = newPagedRow[float64](len(net.Edges))
	e.sibling = make([]int32, len(net.Edges))
	e.roadEdges = make(map[string][]int32, len(net.Edges))
	edgeAt := make(map[*road.Edge]int32, len(net.Edges))
	for i, ed := range net.Edges {
		from, ok := e.idx[ed.From]
		if !ok {
			return nil, fmt.Errorf("ecoroute: edge %s from unknown node %d", ed.Road.ID(), ed.From)
		}
		to, ok := e.idx[ed.To]
		if !ok {
			return nil, fmt.Errorf("ecoroute: edge %s to unknown node %d", ed.Road.ID(), ed.To)
		}
		e.edges[i] = ed
		e.tail[i] = int32(from)
		e.head[i] = int32(to)
		e.lengthM.set(int32(i), ed.Road.Length())
		e.sibling[i] = -1
		e.roadEdges[ed.Road.ID()] = append(e.roadEdges[ed.Road.ID()], int32(i))
		edgeAt[ed] = int32(i)
	}
	// Adjacency comes from the network's own forward and reverse indices so
	// the engine sees exactly the graph road.Network serves, flattened into
	// CSR offset + edge-index arrays.
	e.outOff = make([]int32, nNodes+1)
	e.inOff = make([]int32, nNodes+1)
	e.outArc = make([]int32, len(net.Edges))
	e.inArc = make([]int32, len(net.Edges))
	for dense, id := range e.ids {
		e.outOff[dense+1] = e.outOff[dense]
		for _, ed := range net.Outgoing(id) {
			e.outArc[e.outOff[dense+1]] = edgeAt[ed]
			e.outOff[dense+1]++
		}
		e.inOff[dense+1] = e.inOff[dense]
		for _, ed := range net.Incoming(id) {
			e.inArc[e.inOff[dense+1]] = edgeAt[ed]
			e.inOff[dense+1]++
		}
	}
	// Pair each edge with its opposite-direction sibling (same endpoints,
	// reversed) so the cloud source can fall back to a sign-flipped profile
	// when only one direction has been driven.
	for i, ed := range e.edges {
		if e.sibling[i] >= 0 {
			continue
		}
		h := e.head[i]
		for k := e.outOff[h]; k < e.outOff[h+1]; k++ {
			j := e.outArc[k]
			other := e.edges[j]
			if other.From == ed.To && other.To == ed.From {
				e.sibling[i] = j
				e.sibling[j] = int32(i)
				break
			}
		}
	}
	for i, s := range e.sibling {
		if s >= 0 {
			id := e.edges[s].Road.ID()
			e.roadEdges[id] = append(e.roadEdges[id], int32(i))
		}
	}
	// Travel times are grade-independent: fix them now, one row per bucket.
	e.timeS = make([]pagedRow[float64], len(cfg.SpeedsKmh))
	for b, kmh := range cfg.SpeedsKmh {
		row := newPagedRow[float64](len(e.edges))
		for i, ed := range e.edges {
			v := kmh / 3.6 * cfg.classFactor(ed.Road.Class())
			row.set(int32(i), e.lengthM.at(int32(i))/v)
		}
		e.timeS[b] = row
	}
	return e, nil
}

// Network returns the engine's road network.
func (e *Engine) Network() *road.Network { return e.net }

// Algorithm returns the configured point-query search algorithm (AlgALT or
// AlgCCH) — surfaced so servers can label routing metrics by engine.
func (e *Engine) Algorithm() string { return e.cfg.Algorithm }

// SpeedsKmh returns the configured cruise-speed buckets.
func (e *Engine) SpeedsKmh() []float64 {
	return append([]float64(nil), e.cfg.SpeedsKmh...)
}

// bucketFor snaps a cruise speed to the nearest configured bucket.
func (e *Engine) bucketFor(speedKmh float64) (int, error) {
	if speedKmh <= 0 || math.IsNaN(speedKmh) || math.IsInf(speedKmh, 0) {
		return 0, fmt.Errorf("ecoroute: invalid cruise speed %v km/h", speedKmh)
	}
	best, bestGap := 0, math.Inf(1)
	for i, s := range e.cfg.SpeedsKmh {
		if gap := math.Abs(s - speedKmh); gap < bestGap {
			best, bestGap = i, gap
		}
	}
	return best, nil
}

// Errors a caller can branch on.
var (
	// ErrUnknownNode marks a query endpoint that is not in the network.
	ErrUnknownNode = errors.New("ecoroute: unknown node")
	// ErrNoPath marks a disconnected origin/destination pair.
	ErrNoPath = errors.New("ecoroute: no path")
)

// Plan is one answered routing query.
type Plan struct {
	From, To  int
	Objective Objective
	// SpeedKmh is the snapped cruise-speed bucket the plan was costed at.
	SpeedKmh float64
	// RoadIDs are the traversed roads in travel order.
	RoadIDs []string
	// Nodes are the visited junction IDs, From first, To last.
	Nodes []int
	// Cost is the summed edge cost under the objective (m, s, gal, or g).
	Cost    float64
	LengthM float64
	TimeS   float64
	FuelGal float64
	CO2G    float64
	// EmisG holds the route's per-pollutant grams under the operating-mode
	// model (indexed by emission.Pollutant). Filled only for pollutant
	// objectives — their cost tables are already materialized then; other
	// objectives leave it zero (use Engine.PlanEmissions to fill it).
	EmisG emission.Grams
}

// buildPlan assembles the public result from an edge-index path. Costs are
// summed in travel order so the identical path always produces the
// bit-identical total, regardless of which search found it.
func (e *Engine) buildPlan(obj Objective, bucket int, tb *tables, from, to int, path []int32) Plan {
	p := Plan{
		From:      from,
		To:        to,
		Objective: obj,
		SpeedKmh:  e.cfg.SpeedsKmh[bucket],
		RoadIDs:   make([]string, 0, len(path)),
		Nodes:     make([]int, 0, len(path)+1),
	}
	p.Nodes = append(p.Nodes, from)
	fuelRow := tb.fuel[bucket]
	timeRow := e.timeS[bucket]
	for _, ei := range path {
		p.RoadIDs = append(p.RoadIDs, e.edges[ei].Road.ID())
		p.Nodes = append(p.Nodes, e.ids[e.head[ei]])
		p.LengthM += e.lengthM.at(ei)
		p.TimeS += timeRow.at(ei)
		p.FuelGal += fuelRow.at(ei)
	}
	p.CO2G = p.FuelGal * fuel.CO2GramsPerGallon
	if obj == CO2 {
		// Each edge's grams, rounded before the sum: the conversion keeps
		// the product from fusing into the addition.
		for _, ei := range path {
			p.Cost += float64(fuelRow.at(ei) * fuel.CO2GramsPerGallon)
		}
	} else {
		cost := e.costRow(obj, bucket, tb)
		for _, ei := range path {
			p.Cost += cost.at(ei)
		}
	}
	if _, ok := pollutantOf(obj); ok {
		// The bucket's pollutant rows were materialized by costRow above;
		// summing all four species is four row walks.
		for _, sp := range emission.Pollutants() {
			row := e.emissionRow(sp, bucket, tb)
			for _, ei := range path {
				p.EmisG[sp] += row.at(ei)
			}
		}
	}
	return p
}

// costRow returns the per-edge cost row of a search metric (see metricFor:
// CO2 searches Fuel's row and buildPlan scales its edges into grams). The
// pollutant rows are built lazily per snapshot, one integration pass
// filling all four species for a bucket.
func (e *Engine) costRow(metric Objective, bucket int, tb *tables) pagedRow[float64] {
	switch metric {
	case Distance:
		return e.lengthM
	case Time:
		return e.timeS[bucket]
	case NOx, CO, HC, PM:
		sp, _ := pollutantOf(metric)
		return e.emissionRow(sp, bucket, tb)
	default:
		return tb.fuel[bucket]
	}
}

// metricFor collapses objectives onto the distinct search metrics: CO2 is a
// constant multiple of Fuel, so both route on the fuel row and share ALT
// landmark tables. Each pollutant is its own metric — the binned rates are
// not proportional to fuel or to each other.
func metricFor(obj Objective) Objective {
	if obj == CO2 {
		return Fuel
	}
	return obj
}

// Route answers a point-to-point query with the configured search — ALT
// (bidirectional Dijkstra pruned by landmark lower bounds) or CCH (PQ-free
// elimination-tree search over the contracted hierarchy). The returned plan's
// Cost is bit-identical to RouteDijkstra's for the same query.
func (e *Engine) Route(obj Objective, speedKmh float64, from, to int) (Plan, error) {
	return e.route(obj, speedKmh, from, to, true)
}

// RouteDijkstra answers the same query with plain one-directional Dijkstra —
// the reference implementation the optimized search is verified against.
func (e *Engine) RouteDijkstra(obj Objective, speedKmh float64, from, to int) (Plan, error) {
	return e.route(obj, speedKmh, from, to, false)
}

func (e *Engine) route(obj Objective, speedKmh float64, from, to int, fast bool) (Plan, error) {
	defer observeRoute(obj)()
	bucket, err := e.bucketFor(speedKmh)
	if err != nil {
		return Plan{}, err
	}
	s, ok := e.idx[from]
	if !ok {
		return Plan{}, fmt.Errorf("%w %d", ErrUnknownNode, from)
	}
	t, ok := e.idx[to]
	if !ok {
		return Plan{}, fmt.Errorf("%w %d", ErrUnknownNode, to)
	}
	tb, err := e.fresh()
	if err != nil {
		return Plan{}, err
	}
	if s == t {
		return e.buildPlan(obj, bucket, tb, from, to, nil), nil
	}
	cost := e.costRow(metricFor(obj), bucket, tb)
	var path []int32
	switch {
	case fast && e.cfg.Algorithm == AlgCCH:
		path, ok = e.searchCCH(metricFor(obj), bucket, tb, int32(s), int32(t))
	case fast:
		lm := e.landmarksFor(metricFor(obj), bucket, tb)
		path, ok = e.searchBidirectional(cost, lm, int32(s), int32(t))
	default:
		path, ok = e.searchDijkstra(cost, int32(s), int32(t))
	}
	if !ok {
		return Plan{}, fmt.Errorf("%w from %d to %d", ErrNoPath, from, to)
	}
	return e.buildPlan(obj, bucket, tb, from, to, path), nil
}

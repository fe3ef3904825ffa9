package road

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"roadgrade/internal/geo"
)

// Node is a road-network junction.
type Node struct {
	ID  int
	Pos geo.ENU
}

// Edge is a directed drivable road between two nodes. The Road geometry runs
// from From to To.
type Edge struct {
	From, To int
	Road     *Road
}

// Network is a road graph standing in for the city road network of
// Figure 7(a). Edges are directed; the generator adds both directions for
// every street. Adjacency is CSR: all edges leaving (entering) a node sit in
// one contiguous slice of a single flat array, so Outgoing/Incoming return
// subslices without chasing a per-node heap allocation — on country-scale
// graphs (10⁵–10⁶ edges) the flat layout keeps graph searches cache-resident
// where the old map[int][]*Edge layout missed on every node.
type Network struct {
	Nodes []Node
	Edges []*Edge

	idx      map[int]int32 // node ID → position in Nodes (sparse-ID fallback)
	dense    bool          // node IDs equal slice positions; skip the map
	outOff   []int32       // CSR offsets into outEdges, len(Nodes)+1
	outEdges []*Edge       // edges grouped by From, insertion order within a node
	inOff    []int32       // CSR offsets into inEdges
	inEdges  []*Edge       // edges grouped by To, insertion order within a node
}

// pos maps a node ID to its position in Nodes, -1 if unknown. Generated
// networks number nodes 0..n-1 in slice order, so the common case is a bounds
// check instead of a map probe — that, plus the flat CSR arrays, is what makes
// an adjacency sweep cheaper than the legacy map[int][]*Edge layout.
func (n *Network) pos(id int) int32 {
	if n.dense {
		if id < 0 || id >= len(n.Nodes) {
			return -1
		}
		return int32(id)
	}
	i, ok := n.idx[id]
	if !ok {
		return -1
	}
	return i
}

// NewNetwork assembles a network and builds the forward and reverse CSR
// adjacency indices. Per-node edge order is the edge-slice insertion order,
// so the same input always yields the same adjacency (see GenerateNetwork's
// determinism contract).
func NewNetwork(nodes []Node, edges []*Edge) (*Network, error) {
	if len(nodes) == 0 {
		return nil, errors.New("road: network needs nodes")
	}
	n := &Network{Nodes: nodes, Edges: edges, idx: make(map[int]int32, len(nodes)), dense: true}
	for i, node := range nodes {
		if _, dup := n.idx[node.ID]; dup {
			return nil, fmt.Errorf("road: duplicate node id %d", node.ID)
		}
		n.idx[node.ID] = int32(i)
		if node.ID != i {
			n.dense = false
		}
	}
	n.outOff = make([]int32, len(nodes)+1)
	n.inOff = make([]int32, len(nodes)+1)
	for _, e := range edges {
		from, okF := n.idx[e.From]
		to, okT := n.idx[e.To]
		if !okF || !okT {
			return nil, fmt.Errorf("road: edge %s references unknown node %d->%d", e.Road.ID(), e.From, e.To)
		}
		n.outOff[from+1]++
		n.inOff[to+1]++
	}
	for i := 0; i < len(nodes); i++ {
		n.outOff[i+1] += n.outOff[i]
		n.inOff[i+1] += n.inOff[i]
	}
	n.outEdges = make([]*Edge, len(edges))
	n.inEdges = make([]*Edge, len(edges))
	outCur := make([]int32, len(nodes))
	inCur := make([]int32, len(nodes))
	for _, e := range edges {
		from, to := n.idx[e.From], n.idx[e.To]
		n.outEdges[n.outOff[from]+outCur[from]] = e
		outCur[from]++
		n.inEdges[n.inOff[to]+inCur[to]] = e
		inCur[to]++
	}
	return n, nil
}

// Outgoing returns the edges leaving node id (a shared CSR subslice — do not
// mutate).
func (n *Network) Outgoing(id int) []*Edge {
	i := n.pos(id)
	if i < 0 {
		return nil
	}
	return n.outEdges[n.outOff[i]:n.outOff[i+1]]
}

// Incoming returns the edges entering node id — the reverse adjacency used
// by backward graph searches (e.g. the bidirectional eco-router).
func (n *Network) Incoming(id int) []*Edge {
	i := n.pos(id)
	if i < 0 {
		return nil
	}
	return n.inEdges[n.inOff[i]:n.inOff[i+1]]
}

// TotalLengthM returns the summed length of all directed edges divided by
// two (each street appears in both directions), i.e. the street length.
func (n *Network) TotalLengthM() float64 {
	var sum float64
	for _, e := range n.Edges {
		sum += e.Road.Length()
	}
	return sum / 2
}

// NetworkConfig controls the procedural city generator.
type NetworkConfig struct {
	// TargetStreetKM is the total (undirected) street length to generate;
	// the Charlottesville experiment area is 164.8 km.
	TargetStreetKM float64
	// BlockM is the nominal grid block size (default 450 m).
	BlockM float64
	// JitterFrac perturbs node positions by this fraction of BlockM
	// (default 0.25) so streets bend like a real city.
	JitterFrac float64
	// Terrain provides elevations — the procedural field by default, or an
	// imported GridTerrain for real topography. A default Terrain is
	// derived from the seed when nil.
	Terrain ElevationField
}

func (c NetworkConfig) withDefaults(seed int64) NetworkConfig {
	if c.TargetStreetKM <= 0 {
		c.TargetStreetKM = 164.8
	}
	if c.BlockM <= 0 {
		c.BlockM = 450
	}
	if c.JitterFrac <= 0 {
		c.JitterFrac = 0.25
	}
	if c.Terrain == nil {
		c.Terrain = NewTerrain(seed, TerrainConfig{})
	}
	return c
}

// GenerateNetwork builds a deterministic synthetic city road network whose
// total street length approximates cfg.TargetStreetKM. The layout is a
// jittered grid with some diagonal connectors; profiles come from the
// terrain field; classes are assigned so arterials form through-streets.
//
// Determinism contract: the same (seed, cfg) pair always yields byte-
// identical output — the same node slice order, node IDs and positions, the
// same edge slice order, and the same per-road IDs, geometry and profiles —
// at every scale, from the 164.8 km city to country-size 10⁵–10⁶-edge
// graphs. Everything derives from one sequentially-consumed rand source and
// index-ordered loops (no map iteration), which is what makes the
// routescale benchmarks' cross-run comparisons and the CCH node ordering
// reproducible.
// Construction streams: node and edge storage is preallocated from the grid
// dimensions and every pass is linear in the street count.
func GenerateNetwork(seed int64, cfg NetworkConfig) (*Network, error) {
	cfg = cfg.withDefaults(seed)
	rng := rand.New(rand.NewSource(seed))

	// A w x h grid has w*(h-1) + h*(w-1) streets of ~BlockM each.
	// Solve for a square-ish grid hitting the target length.
	targetM := cfg.TargetStreetKM * 1000
	side := int(math.Round((1 + math.Sqrt(1+2*targetM/cfg.BlockM)) / 2))
	if side < 2 {
		side = 2
	}
	w, h := side, side
	// Shrink until the expected length is at or below target.
	for float64(w*(h-1)+h*(w-1))*cfg.BlockM > targetM && w > 2 {
		w--
	}

	nodes := make([]Node, 0, w*h)
	idAt := func(ix, iy int) int { return iy*w + ix }
	for iy := 0; iy < h; iy++ {
		for ix := 0; ix < w; ix++ {
			jx := (rng.Float64()*2 - 1) * cfg.JitterFrac * cfg.BlockM
			jy := (rng.Float64()*2 - 1) * cfg.JitterFrac * cfg.BlockM
			nodes = append(nodes, Node{
				ID:  idAt(ix, iy),
				Pos: geo.ENU{E: float64(ix)*cfg.BlockM + jx, N: float64(iy)*cfg.BlockM + jy},
			})
		}
	}

	// Both directions of every grid street plus ~6% diagonals.
	edges := make([]*Edge, 0, 2*(w*(h-1)+h*(w-1))+w*h/8)
	var builtM float64
	addStreet := func(a, b Node) error {
		if builtM >= targetM {
			return nil
		}
		cls := classify(a, b, w, h, cfg.BlockM, rng)
		fwd, err := buildStreet(fmt.Sprintf("st-%d-%d", a.ID, b.ID), a.Pos, b.Pos, cls, cfg, rng)
		if err != nil {
			return err
		}
		rev, err := buildStreet(fmt.Sprintf("st-%d-%d", b.ID, a.ID), b.Pos, a.Pos, cls, cfg, rng)
		if err != nil {
			return err
		}
		edges = append(edges,
			&Edge{From: a.ID, To: b.ID, Road: fwd},
			&Edge{From: b.ID, To: a.ID, Road: rev},
		)
		builtM += fwd.Length()
		return nil
	}

	for iy := 0; iy < h; iy++ {
		for ix := 0; ix < w; ix++ {
			a := nodes[idAt(ix, iy)]
			if ix+1 < w {
				if err := addStreet(a, nodes[idAt(ix+1, iy)]); err != nil {
					return nil, err
				}
			}
			if iy+1 < h {
				if err := addStreet(a, nodes[idAt(ix, iy+1)]); err != nil {
					return nil, err
				}
			}
			// Occasional diagonal connector for variety.
			if ix+1 < w && iy+1 < h && rng.Float64() < 0.06 {
				if err := addStreet(a, nodes[idAt(ix+1, iy+1)]); err != nil {
					return nil, err
				}
			}
		}
	}
	return NewNetwork(nodes, edges)
}

// classify makes middle rows/columns arterial through-streets, edges local.
func classify(a, b Node, w, h int, blockM float64, rng *rand.Rand) Class {
	midE := float64(w-1) * blockM / 2
	midN := float64(h-1) * blockM / 2
	cE := (a.Pos.E + b.Pos.E) / 2
	cN := (a.Pos.N + b.Pos.N) / 2
	distMid := math.Min(math.Abs(cE-midE), math.Abs(cN-midN))
	switch {
	case distMid < blockM*0.8:
		return ClassArterial
	case rng.Float64() < 0.35:
		return ClassCollector
	default:
		return ClassLocal
	}
}

// buildStreet creates a single directed road between two junctions with a
// gentle midpoint bend and a terrain-derived profile.
func buildStreet(id string, from, to geo.ENU, cls Class, cfg NetworkConfig, rng *rand.Rand) (*Road, error) {
	heading := math.Atan2(to.N-from.N, to.E-from.E)
	length := math.Hypot(to.E-from.E, to.N-from.N)
	// Bowed midpoint gives curvature without leaving the endpoints.
	bow := (rng.Float64()*2 - 1) * 0.06 * length
	mid := geo.ENU{
		E: (from.E+to.E)/2 - bow*math.Sin(heading),
		N: (from.N+to.N)/2 + bow*math.Cos(heading),
	}
	pts := interpolateQuadratic(from, mid, to, int(math.Max(8, length/25)))
	line, err := geo.NewPolyline(pts)
	if err != nil {
		return nil, fmt.Errorf("road: street %s geometry: %w", id, err)
	}
	prof, err := ProfileAlongField(cfg.Terrain, line, 5)
	if err != nil {
		return nil, fmt.Errorf("road: street %s profile: %w", id, err)
	}
	lanes := 1
	if cls == ClassArterial {
		lanes = 2
	}
	sections := []Section{{StartS: 0, EndS: line.Length(), Lanes: lanes}}
	return NewRoad(id, line, prof, sections, cls)
}

// interpolateQuadratic samples a quadratic Bezier through (a, ctrl, b).
func interpolateQuadratic(a, ctrl, b geo.ENU, n int) []geo.ENU {
	if n < 2 {
		n = 2
	}
	out := make([]geo.ENU, 0, n+1)
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		u := 1 - t
		out = append(out, geo.ENU{
			E: u*u*a.E + 2*u*t*ctrl.E + t*t*b.E,
			N: u*u*a.N + 2*u*t*ctrl.N + t*t*b.N,
		})
	}
	return out
}

// Charlottesville returns the deterministic stand-in for the paper's
// 164.8 km experiment network (see DESIGN.md substitutions).
func Charlottesville() (*Network, error) {
	return GenerateNetwork(1827, NetworkConfig{TargetStreetKM: 164.8})
}

// CountryConfig scales the Charlottesville-shaped generator to scale× the
// paper's 164.8 km street length. Large scales shrink the block size toward
// 300 m (denser junctions, like a national network's town cores) so the
// 100× config lands at ~10⁵ directed edges — the country-scale routing
// setting of DESIGN.md §13. The output stays deterministic per seed at any
// scale (see GenerateNetwork).
func CountryConfig(scale float64) NetworkConfig {
	if scale <= 0 {
		scale = 1
	}
	cfg := NetworkConfig{TargetStreetKM: 164.8 * scale}
	if scale >= 25 {
		cfg.BlockM = 300
	}
	return cfg
}

package road

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// fingerprintNetwork hashes everything a downstream consumer can observe
// about generation order and content: node slice order, IDs and positions,
// edge slice order, endpoints, road IDs, geometry lengths, and the full
// altitude profiles. Two byte-identical networks hash equal; any reordering
// or numeric drift changes the sum.
func fingerprintNetwork(n *Network) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wF := func(v float64) { wU64(math.Float64bits(v)) }
	for _, nd := range n.Nodes {
		wU64(uint64(nd.ID))
		wF(nd.Pos.E)
		wF(nd.Pos.N)
	}
	for _, e := range n.Edges {
		wU64(uint64(e.From))
		wU64(uint64(e.To))
		h.Write([]byte(e.Road.ID()))
		wF(e.Road.Length())
		for _, alt := range e.Road.Profile().Altitudes() {
			wF(alt)
		}
	}
	return h.Sum64()
}

// TestGenerateNetworkDeterministicAtScale pins the GenerateNetwork
// determinism contract on a config large enough to exercise the streamed
// construction paths: the same seed must reproduce node and edge ordering
// (and all derived geometry) byte-for-byte, because the routescale
// benchmarks and the CCH node ordering both assume it.
func TestGenerateNetworkDeterministicAtScale(t *testing.T) {
	cfg := NetworkConfig{TargetStreetKM: 800, BlockM: 300}
	a, err := GenerateNetwork(99, cfg)
	if err != nil {
		t.Fatalf("generate a: %v", err)
	}
	b, err := GenerateNetwork(99, cfg)
	if err != nil {
		t.Fatalf("generate b: %v", err)
	}
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		t.Fatalf("sizes differ: %d/%d nodes, %d/%d edges",
			len(a.Nodes), len(b.Nodes), len(a.Edges), len(b.Edges))
	}
	if fa, fb := fingerprintNetwork(a), fingerprintNetwork(b); fa != fb {
		t.Fatalf("same seed produced different networks: %x vs %x", fa, fb)
	}
	other, err := GenerateNetwork(100, cfg)
	if err != nil {
		t.Fatalf("generate other: %v", err)
	}
	if fingerprintNetwork(a) == fingerprintNetwork(other) {
		t.Fatal("different seeds produced identical networks")
	}
	// The scale itself: ~800 km at 300 m blocks is thousands of directed
	// edges; a shortfall means the generator silently under-built.
	if len(a.Edges) < 4000 {
		t.Fatalf("expected a country-scale slice (≥4000 directed edges), got %d", len(a.Edges))
	}
}

// TestGenerateNetworkFingerprint pins generated networks across builds, not
// just within one process: the fingerprints below were computed by the
// street-by-street generator that sampled each profile as it drew the
// street, and the generator that samples them in parallel must match them
// at one P and at four.
func TestGenerateNetworkFingerprint(t *testing.T) {
	cases := []struct {
		name string
		gen  func() (*Network, error)
		want uint64
	}{
		{"charlottesville", Charlottesville, 0xe61b8d206f1034fb},
		{"800km", func() (*Network, error) {
			return GenerateNetwork(99, NetworkConfig{TargetStreetKM: 800, BlockM: 300})
		}, 0x52c8c29ffec6769a},
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, tc := range cases {
				net, err := tc.gen()
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if got := fingerprintNetwork(net); got != tc.want {
					t.Errorf("%s: fingerprint %#x, want %#x", tc.name, got, tc.want)
				}
			}
		})
	}
}

// TestCountryConfigEdgeFloor pins the 100× config to the ≥10⁵ directed edge
// floor the country-scale routing claims are measured on. Generation at that
// size takes a few seconds, so the full check only runs outside -short; the
// closed-form street-count estimate is asserted always.
func TestCountryConfigEdgeFloor(t *testing.T) {
	cfg := CountryConfig(100)
	if cfg.TargetStreetKM != 16480 || cfg.BlockM != 300 {
		t.Fatalf("CountryConfig(100) = %+v, want 16480 km at 300 m blocks", cfg)
	}
	// w*(h-1)+h*(w-1) streets, both directions.
	side := int(math.Round((1 + math.Sqrt(1+2*cfg.TargetStreetKM*1000/cfg.BlockM)) / 2))
	if est := 2 * 2 * side * (side - 1); est < 100_000 {
		t.Fatalf("100× config estimates only %d directed edges", est)
	}
	if testing.Short() {
		t.Skip("skipping 100× generation in -short mode")
	}
	net, err := GenerateNetwork(1827, cfg)
	if err != nil {
		t.Fatalf("generate 100×: %v", err)
	}
	if len(net.Edges) < 100_000 {
		t.Fatalf("100× network has %d directed edges, want ≥ 100000", len(net.Edges))
	}
}

// TestNetworkCSRAdjacency pins the CSR index to the documented behavior:
// per-node edge order equals edge-slice insertion order, unknown node IDs
// return nil, and forward/reverse views cover every edge exactly once.
func TestNetworkCSRAdjacency(t *testing.T) {
	net, err := GenerateNetwork(7, NetworkConfig{TargetStreetKM: 8})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	seenOut := make(map[*Edge]bool, len(net.Edges))
	edgePos := make(map[*Edge]int, len(net.Edges))
	for i, e := range net.Edges {
		edgePos[e] = i
	}
	for _, nd := range net.Nodes {
		for _, e := range net.Outgoing(nd.ID) {
			if e.From != nd.ID {
				t.Fatalf("Outgoing(%d) returned edge %d→%d", nd.ID, e.From, e.To)
			}
			if seenOut[e] {
				t.Fatalf("edge %s appears twice in forward adjacency", e.Road.ID())
			}
			seenOut[e] = true
		}
		// Insertion order within the node: positions in net.Edges ascend.
		pos := -1
		for _, e := range net.Outgoing(nd.ID) {
			if at := edgePos[e]; at <= pos {
				t.Fatalf("Outgoing(%d) order does not follow edge insertion order", nd.ID)
			} else {
				pos = at
			}
		}
	}
	if len(seenOut) != len(net.Edges) {
		t.Fatalf("forward adjacency covers %d of %d edges", len(seenOut), len(net.Edges))
	}
	seenIn := make(map[*Edge]bool, len(net.Edges))
	for _, nd := range net.Nodes {
		for _, e := range net.Incoming(nd.ID) {
			if e.To != nd.ID {
				t.Fatalf("Incoming(%d) returned edge %d→%d", nd.ID, e.From, e.To)
			}
			seenIn[e] = true
		}
	}
	if len(seenIn) != len(net.Edges) {
		t.Fatalf("reverse adjacency covers %d of %d edges", len(seenIn), len(net.Edges))
	}
	if net.Outgoing(-42) != nil || net.Incoming(-42) != nil {
		t.Fatal("unknown node id must return nil adjacency")
	}
}

// The map→CSR satellite benchmark: a full-network adjacency sweep (every
// node's outgoing edges touched once, the access pattern of one Dijkstra
// settle pass) over the CSR index vs the legacy per-node map layout.
func adjacencySweep(b *testing.B, outgoing func(id int) []*Edge, nodes []Node) {
	b.Helper()
	var sum float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, nd := range nodes {
			for _, e := range outgoing(nd.ID) {
				sum += e.Road.Length()
			}
		}
	}
	if sum < 0 {
		b.Fatal("unreachable")
	}
}

func BenchmarkRouteScaleAdjacencyCSR(b *testing.B) {
	net, err := Charlottesville()
	if err != nil {
		b.Fatalf("network: %v", err)
	}
	adjacencySweep(b, net.Outgoing, net.Nodes)
}

func BenchmarkRouteScaleAdjacencyMap(b *testing.B) {
	net, err := Charlottesville()
	if err != nil {
		b.Fatalf("network: %v", err)
	}
	adj := make(map[int][]*Edge)
	for _, e := range net.Edges {
		adj[e.From] = append(adj[e.From], e)
	}
	adjacencySweep(b, func(id int) []*Edge { return adj[id] }, net.Nodes)
}

// BenchmarkGenerateNetwork25x generates the 25× country network, the
// route-country benchmark's: the street draws, then the terrain profiles
// over GOMAXPROCS goroutines. A BENCH.json cold-start row.
func BenchmarkGenerateNetwork25x(b *testing.B) {
	cfg := CountryConfig(25)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateNetwork(1827, cfg); err != nil {
			b.Fatalf("generate: %v", err)
		}
	}
}

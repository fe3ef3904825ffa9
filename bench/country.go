package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"roadgrade/internal/cloud"
	"roadgrade/internal/ecoroute"
	"roadgrade/internal/fusion"
	"roadgrade/internal/road"
)

// route-country is reads beside writes on a network far larger than the
// city: the country-scale generator at 25× the paper's 164.8 km (6,889
// junctions, 26,564 roads; the smallest scale with the country block size),
// every road prefilled once, served by the CCH engine of DESIGN.md §13 with
// emissions off. One reader goroutine asks open-loop for fuel and NOx routes
// at four cruise speeds; one writer goroutine uploads a fresh estimate every
// tick and probes how soon routes reflect it. Query, refresh and
// re-customization changes show here; phone and emission-table changes are
// predicted not to.
//
// The engine refreshes lazily: the first query after a tick recosts the
// changed road, the first query of each objective and speed re-customizes
// that bucket, and the first NOx query at each speed updates its pollutant
// row. So every tick stalls the probe and the reader behind a refresh and
// eight re-customizations. The probe asks for every kind the reader asks
// for, so freshness is the time until all of them reflect the upload, and a
// change to that lazy work shows in freshness_p50_ms and in the record's
// tails.
//
// Probing every kind also keeps each snapshot's pollutant rows built. The
// engine carries a speed's rows only from the snapshot just before, and only
// if that snapshot built them. A NOx speed no query asks for between two
// ticks loses them, and its next query re-integrates all 26,564 edges, about
// 100 ms: longer than a tick, so the next snapshots lose rows too and the
// reader falls seconds behind (README.md).
//
// A tick is one road, not a batch of eight. A batch spans several shards and
// bumps the store generation once per shard fold; a read landing between two
// folds leaves a snapshot whose pollutant rows the next snapshot cannot
// carry over, and the next NOx query of every other speed re-integrates all
// 26,564 edges, about 100 ms each. With eight-road ticks every 100 ms that
// race overloaded the reader at 100 to 400 queries per second, and an
// overloaded open-loop reader measures how long the run lasts, not the
// server; with slower ticks its tails swung by a third or more from run to
// run (README.md).

const (
	countryReadRate  = 200 // route queries per second
	countryCheckStep = 64  // every 64th probe is checked against Dijkstra
	countryDevices   = 4096
	countryTick      = 100 * time.Millisecond // writer period
)

// countryKinds are what the reader and the probes ask for: fuel and NOx at
// each speed the emission tables are built for.
var countryKinds = func() []routeKind {
	var kinds []routeKind
	for _, kmh := range []float64{30, 40, 50, 60} {
		for _, obj := range []ecoroute.Objective{ecoroute.Fuel, ecoroute.NOx} {
			kinds = append(kinds, routeKind{obj, kmh})
		}
	}
	return kinds
}()

func runCountry(h *harness) error {
	netCfg := road.CountryConfig(h.size.scale)
	nw, err := road.GenerateNetwork(networkSeed, netCfg)
	if err != nil {
		return err
	}
	rng := h.rng(1)
	prefill := make([]*fusion.Profile, len(nw.Edges))
	for i, e := range nw.Edges {
		prefill[i] = truthProfile(e.Road, 0.002, rng)
		h.inputs.profile(prefill[i])
	}
	rounds := [][]*fusion.Profile{prefill}
	queries := h.genQueries(h.rng(2), nw, int(countryReadRate*h.size.seconds), countryKinds)
	ticks := make([][]cloud.BatchItem, int(h.size.seconds*float64(time.Second)/float64(countryTick)))
	tickEdges := make([]int, len(ticks))
	rng = h.rng(3)
	for k := range ticks {
		ei := rng.Intn(len(nw.Edges))
		p := truthProfile(nw.Edges[ei].Road, 0.003, rng)
		ticks[k] = []cloud.BatchItem{{
			RoadID:  nw.Edges[ei].Road.ID(),
			Key:     fmt.Sprintf("tick-%d", k),
			Device:  fmt.Sprintf("dev-%04d", k%countryDevices),
			Profile: p,
		}}
		tickEdges[k] = ei
		h.inputs.ints(ei)
		h.inputs.profile(p)
	}

	st, err := h.setUp(stackConfig{
		netCfg:    netCfg,
		algorithm: ecoroute.AlgCCH,
		prefill:   rounds,
		// Contraction plus a customization per objective and speed.
		warm: func(st *stack) error { return warmRoutes(st, queries[0], countryKinds) },
	})
	if err != nil {
		return err
	}
	w := &countryWriter{h: h, nw: nw, st: st, cl: st.client()}
	rcl := st.client()
	var readLat []float64
	p := h.measure(st.srv, func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			readLat = h.readRoutes(rcl, queries, countryReadRate)
		}()
		t0 := time.Now()
		w.run(ticks, tickEdges)
		h.stages["writer"] = time.Since(t0).Seconds()
		wg.Wait()
	})
	st.close()

	fused, mae := mapState(st.srv, st.network)
	h.digests["fused_map"] = fused
	h.counts["ticks"] = int64(len(ticks))
	h.counts["probes"] = int64(len(w.probes))
	h.counts["route_queries"] = int64(len(queries))

	h.e2e["request_p50_ms"] = quantile(readLat, 0.50)
	h.e2e["freshness_p50_ms"] = quantile(w.fresh, 0.50)
	h.setTails(readLat, w.fresh)
	h.e2e["unit_cost_ms"] = ms(p.cpu) / float64(len(queries)+len(countryKinds)*len(w.probes))
	h.e2e["map_mae_deg"] = mae
	h.finish(p)

	if h.tamper && len(w.probes) > 0 {
		w.probes[0].cost[1] = math.Nextafter(w.probes[0].cost[1], 0)
	}
	// Release the measured system before the replay builds a second one.
	nwLive := st.network
	w.st = nil
	runtime.GC()
	return h.verifyReplay(nwLive, rounds, ticks, w.probes, countryCheckStep, fused)
}

// countryWriter submits one tick's batch on schedule and probes freshness.
type countryWriter struct {
	h  *harness
	nw *road.Network
	st *stack
	cl *cloud.Client

	probes []probe
	fresh  []float64 // ms
}

func (w *countryWriter) run(ticks [][]cloud.BatchItem, tickEdges []int) {
	h := w.h
	ctx := context.Background()
	_, late := openLoop(len(ticks), countryTick, func(k int) {
		tctx, tick := h.tr.StartCtx(ctx, "harness.tick", "harness")
		defer tick.End()
		_, sp := h.tr.StartCtx(tctx, "cloud.client.submit_batch", "cloud")
		res, err := w.cl.SubmitBatch(tctx, ticks[k])
		sp.End()
		accepted := time.Now()
		if !h.op("submitting tick", err) {
			return
		}
		for i, r := range res {
			h.check(r.Status == "accepted", "tick %d item %d: %s %s", k, i, r.Status, r.Error)
		}
		pr, ok := h.probeRoutes(tctx, w.cl, k, w.nw.Edges[tickEdges[k]], countryKinds)
		if !ok {
			return
		}
		w.fresh = append(w.fresh, ms(time.Since(accepted)))
		w.probes = append(w.probes, pr)
		if cs := w.st.eng.LastCustomization(); cs.TotalArcs > 0 {
			h.cchFrac = append(h.cchFrac, float64(cs.RecomputedArcs)/float64(cs.TotalArcs))
		}
	})
	h.mu.Lock()
	h.lateness = append(h.lateness, late...)
	h.mu.Unlock()
}

package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"roadgrade/internal/cloud"
	"roadgrade/internal/core"
	"roadgrade/internal/ecoroute"
	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
	"roadgrade/internal/road"
	"roadgrade/internal/sensors"
	"roadgrade/internal/vehicle"
)

// crowdloop-city is the paper's whole loop on its own 164.8 km city: one
// fleet goroutine simulates a drive, estimates its grade on the phone
// (streaming EKF over every record, then the four-source pipeline and track
// fusion), uploads every four profiles as one binary batch and probes how
// soon routes and the emission map reflect them; one reader goroutine asks
// for eco-routes open-loop. It is the only workload that runs the phone
// side, and its freshness includes the ALT landmark and emission-table
// rebuilds.
//
// The fleet is open-loop too: phones are independent users, and a batch is
// due every cityBatchPeriod whether or not the last one was done. That keeps
// the fleet thread about half busy on a 2-core host. Run closed-loop, as
// fast as the phone could go, the fleet held one core all the time, so the
// upload rate, and with it how often the reader met a refresh, followed the
// host's speed: the phone's CPU per km spread 0.14 over ten seeds and
// freshness_p50_ms 0.12, against 0.05 and 0.04 open-loop (README.md).

const (
	cityKM          = 164.8
	fleetVehicles   = 256 // device ids the fleet's drives rotate through
	drivesPerBatch  = 4
	cityBatchPeriod = 100 * time.Millisecond // one batch due per period
	cityReadRate    = 200                    // route queries per second
)

var citySpeedsKmh = []float64{30, 40, 50}

// cityKmh is the cruise speed of the city's routes and emission table;
// cityKinds are the routes its reader and probes ask for.
const cityKmh = 40

var cityKinds = []routeKind{{ecoroute.Fuel, cityKmh}, {ecoroute.NOx, cityKmh}}

// drive is one planned trip: a road and a cruise speed.
type drive struct {
	edge int
	kmh  float64
}

func runCrowdloop(h *harness) error {
	netCfg := road.NetworkConfig{TargetStreetKM: cityKM}
	nw, err := road.GenerateNetwork(networkSeed, netCfg)
	if err != nil {
		return err
	}
	// The drive plan cycles through a seeded permutation of the roads. Its
	// sensor traces are simulated drive by drive inside the fleet loop,
	// outside the phone timing, so they never all sit in memory.
	rng := h.rng(1)
	perm := rng.Perm(len(nw.Edges))
	plan := make([]drive, h.size.drives)
	for i := range plan {
		plan[i] = drive{edge: perm[i%len(perm)], kmh: citySpeedsKmh[rng.Intn(len(citySpeedsKmh))]}
		h.inputs.ints(plan[i].edge)
		h.inputs.floats(plan[i].kmh)
	}
	queries := h.genQueries(h.rng(2), nw, int(cityReadRate*h.size.seconds), cityKinds)

	st, err := h.setUp(stackConfig{
		netCfg:    netCfg,
		algorithm: ecoroute.AlgALT,
		emissions: true,
		warm: func(st *stack) error {
			if err := warmRoutes(st, queries[0], cityKinds); err != nil {
				return err
			}
			_, err := st.client().FetchEmissions(context.Background(), "car", cityKmh)
			return err
		},
	})
	if err != nil {
		return err
	}
	pipe, err := core.NewPipeline(core.Config{})
	if err != nil {
		st.close()
		return err
	}
	f := &fleet{h: h, nw: nw, st: st, cl: st.client(), pipe: pipe, profiles: newDigest()}
	rcl := st.client()
	var readLat []float64
	p := h.measure(st.srv, func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			readLat = h.readRoutes(rcl, queries, cityReadRate)
		}()
		t0 := time.Now()
		f.run(plan)
		h.stages["writer"] = time.Since(t0).Seconds()
		wg.Wait()
	})
	st.close()

	fused, _ := mapState(st.srv, st.network)
	h.digests["fused_map"] = fused
	h.digests["submitted_profiles"] = f.profiles.sum()
	h.counts["drives"] = int64(len(plan))
	h.counts["batches"] = int64(len(f.sent))
	h.counts["probes"] = int64(len(f.probes))
	h.counts["route_queries"] = int64(len(queries))
	h.counts["sensor_records"] = int64(h.records)
	h.counts["profiles_backfilled"] = int64(f.backfilled)

	h.e2e["request_p50_ms"] = quantile(readLat, 0.50)
	h.e2e["freshness_p50_ms"] = quantile(f.fresh, 0.50)
	h.setTails(readLat, f.fresh)
	h.e2e["unit_cost_ms"] = ms(f.phoneCPU) / h.km
	h.e2e["map_mae_deg"] = f.errSum / float64(f.errCells)
	h.finish(p)

	if h.tamper && len(f.probes) > 0 {
		f.probes[0].cost[0] = math.Nextafter(f.probes[0].cost[0], math.Inf(1))
	}
	return h.verifyReplay(st.network, nil, f.sent, f.probes, 1, fused)
}

// fleet is the crowdloop-city writer: drives, phone estimation, uploads and
// freshness probes, all on one goroutine.
type fleet struct {
	h    *harness
	nw   *road.Network // input copy of the city: geometry and ground truth
	st   *stack
	cl   *cloud.Client
	pipe *core.Pipeline

	phoneCPU   time.Duration // fleet thread CPU spent in phone estimation
	backfilled int           // profiles whose leading cells needed backfill
	errSum     float64       // |submitted - truth| in degrees, summed over cells
	errCells   int
	profiles   *digest

	sent   [][]cloud.BatchItem // every batch, in send order
	probes []probe
	fresh  []float64 // ms
}

// run drives the plan open-loop: batch k's drives start when it is due, at
// k × cityBatchPeriod, however long earlier batches took.
func (f *fleet) run(plan []drive) {
	// The fleet keeps one OS thread so the phone's CPU time can be read
	// from it: unlike wall time it excludes waits for the other goroutines'
	// and other tenants' work on a shared core.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	n := (len(plan) + drivesPerBatch - 1) / drivesPerBatch
	_, late := openLoop(n, cityBatchPeriod, func(k int) {
		var items []cloud.BatchItem
		var edges []int
		for i := k * drivesPerBatch; i < min(len(plan), (k+1)*drivesPerBatch); i++ {
			e := f.nw.Edges[plan[i].edge]
			g0 := time.Now()
			trace, err := f.h.simulate(i, e.Road, plan[i].kmh)
			f.h.gen += time.Since(g0)
			if !f.h.op("simulating drive", err) {
				continue
			}
			prof, err := f.phone(e.Road, trace)
			if !f.h.op("phone estimate", err) {
				continue
			}
			items = append(items, cloud.BatchItem{
				RoadID:  e.Road.ID(),
				Key:     fmt.Sprintf("drive-%d", i),
				Device:  fmt.Sprintf("veh-%03d", i%fleetVehicles),
				Profile: prof,
			})
			edges = append(edges, plan[i].edge)
		}
		if len(items) > 0 {
			f.submit(items, edges)
		}
	})
	f.h.mu.Lock()
	f.h.lateness = append(f.h.lateness, late...)
	f.h.mu.Unlock()
}

// simulate drives one planned trip and samples the phone's sensors — input
// generation, fingerprinted record by record.
func (h *harness) simulate(i int, r *road.Road, kmh float64) (*sensors.Trace, error) {
	rng := h.rng(1000 + int64(i))
	trip, err := vehicle.SimulateTrip(vehicle.TripConfig{Road: r, Driver: vehicle.DefaultDriver(kmh / 3.6), Rng: rng})
	if err != nil {
		return nil, err
	}
	tr, err := sensors.Sample(trip, sensors.DefaultConfig(), rng)
	if err != nil {
		return nil, err
	}
	for _, rec := range tr.Records {
		gps := 0.0
		if rec.GPSValid {
			gps = 1
		}
		h.inputs.floats(rec.T, rec.AccelLong, rec.GyroYaw, rec.RawAccelX, rec.RawAccelY, rec.RawAccelZ,
			rec.RawGyroX, rec.RawGyroY, rec.RawGyroZ, rec.Speedometer, rec.CANSpeed, rec.CANTorque,
			rec.BaroAlt, gps, rec.GPSE, rec.GPSN, rec.GPSAlt, rec.GPSSpeed)
	}
	return tr, nil
}

// phone is the on-phone estimation of one drive: the live streaming filter
// over every record, then the post-drive four-source pipeline and track
// fusion. It returns the profile the phone uploads.
func (f *fleet) phone(r *road.Road, trace *sensors.Trace) (*fusion.Profile, error) {
	h := f.h
	line := r.Line()
	cpu0 := threadCPU()
	ctx, drive := h.tr.StartCtx(context.Background(), "phone.drive", "phone")
	defer drive.End()

	_, sp := h.tr.StartCtx(ctx, "core.stream", "core")
	live, err := core.NewStreaming(core.Config{}, line, sensors.SourceCANBus, trace.DT)
	if err == nil {
		for _, rec := range trace.Records {
			if _, err = live.Push(rec); err != nil {
				break
			}
		}
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	tracks, err := f.tracks(ctx, trace, r)
	if err != nil {
		return nil, err
	}
	_, sp = h.tr.StartCtx(ctx, "fusion.fuse_tracks", "fusion")
	prof, err := fusion.FuseTracks(tracks, 5, r.Length())
	sp.End()
	if err != nil {
		return nil, err
	}
	if backfill(prof) {
		f.backfilled++
	}
	f.phoneCPU += threadCPU() - cpu0
	h.km += r.Length() / 1000
	h.records += len(trace.Records)

	s, n := profileErr(r, prof)
	f.errSum += s
	f.errCells += n
	f.profiles.profile(prof)
	return prof, nil
}

// backfill gives the leading cells no track reached the first covered
// cell's estimate and reports whether there were any. FuseTracks leaves
// such cells at zero variance, which both upload codecs reject, so the
// phone app carries the first estimate backward as FuseTracks carries
// estimates forward.
func backfill(p *fusion.Profile) bool {
	first := 0
	for first < len(p.Var) && p.Var[first] <= 0 {
		first++
	}
	if first == 0 || first == len(p.Var) {
		return false
	}
	for i := 0; i < first; i++ {
		p.GradeRad[i], p.Var[i] = p.GradeRad[first], p.Var[first]
	}
	return true
}

// tracks runs the batch pipeline. A traced run makes the same calls
// EstimateAll does, one span per stage and velocity source.
func (f *fleet) tracks(ctx context.Context, trace *sensors.Trace, r *road.Road) ([]*core.Track, error) {
	tr := f.h.tr
	if tr == nil {
		return f.pipe.EstimateAll(trace, r.Line())
	}
	_, sp := tr.StartCtx(ctx, "core.adjust", "core")
	adj, err := f.pipe.Adjust(trace, r.Line())
	sp.End()
	if err != nil {
		return nil, err
	}
	var tracks []*core.Track
	for _, src := range sensors.AllSources() {
		_, sp := tr.StartCtx(ctx, "core.estimate_track", "core", obs.L("source", src.String()))
		t, err := f.pipe.EstimateTrack(trace, adj, src)
		sp.End()
		if err != nil {
			return nil, err
		}
		tracks = append(tracks, t)
	}
	return tracks, nil
}

// submit uploads one batch, then probes freshness: the fuel and NOx routes
// along the batch's first road and the car emission table, timed from the
// moment SubmitBatch returned (the handler answers only after the fold).
func (f *fleet) submit(items []cloud.BatchItem, edges []int) {
	h := f.h
	k := len(f.sent)
	f.sent = append(f.sent, items)
	ctx := context.Background()
	_, sp := h.tr.StartCtx(ctx, "cloud.client.submit_batch", "cloud")
	res, err := f.cl.SubmitBatch(ctx, items)
	sp.End()
	accepted := time.Now()
	if !h.op("submitting batch", err) {
		return
	}
	for i, r := range res {
		h.check(r.Status == "accepted", "batch %d item %d: %s %s", k, i, r.Status, r.Error)
	}
	gen := f.st.srv.StoreGeneration()

	pctx, ps := h.tr.StartCtx(ctx, "harness.freshness_probe", "harness")
	pr, ok := h.probeRoutes(pctx, f.cl, k, f.nw.Edges[edges[0]], cityKinds)
	if !ok {
		ps.End()
		return
	}
	_, sp = h.tr.StartCtx(pctx, "cloud.client.emissions", "cloud")
	em, err := f.cl.FetchEmissions(pctx, "car", cityKmh)
	sp.End()
	ps.End()
	fresh := time.Since(accepted)
	if !h.op("probe emissions", err) {
		return
	}
	f.fresh = append(f.fresh, ms(fresh))
	f.probes = append(f.probes, pr)
	h.check(em.Generation >= gen, "emission table generation %d behind accepted store generation %d", em.Generation, gen)
	for i, ei := range edges {
		ok := ei < len(em.Roads) && em.Roads[ei].RoadID == items[i].RoadID && em.Roads[ei].Provenance == "fused"
		h.check(ok, "emission row for just-submitted road %s is not fused", items[i].RoadID)
	}
}

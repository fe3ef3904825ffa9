package main

import (
	"roadgrade/internal/obs"
	"roadgrade/internal/sensors"
)

// perLayerUnits lists the metrics a traced run reports, with their units.
// Every workload reports all of them; a layer the workload does not run
// reads 0. Times come from the harness spans around each public call;
// counts and server-side times are deltas of series the program already
// exports in obs.Default, taken around the measured phase.
var perLayerUnits = map[string]string{
	"core.stream_us_per_record":                    "us",
	"core.adjust_ms_per_km":                        "ms/km",
	"core.gate_rejected":                           "count",
	"core.filter_resets":                           "count",
	"fusion.fuse_tracks_ms_per_km":                 "ms/km",
	"fusion.tracks_quarantined":                    "count",
	"cloud.codec.encode_us_per_item":               "us",
	"cloud.codec.decode_us_per_item":               "us",
	"cloud.codec.bytes_per_item":                   "B",
	"cloud.client.submit_batch_ms_mean":            "ms",
	"cloud.client.route_ms_mean":                   "ms",
	"cloud.client.emissions_ms_mean":               "ms",
	"cloud.client.fetch_profile_ms_mean":           "ms",
	"cloud.client.retries":                         "count",
	"cloud.server.submit_batch_ms_mean":            "ms",
	"cloud.server.route_ms_mean":                   "ms",
	"cloud.server.emissions_ms_mean":               "ms",
	"cloud.server.fused_ms_mean":                   "ms",
	"cloud.coalesce.folds":                         "count",
	"cloud.coalesce.items_per_fold":                "count",
	"cloud.coalesce.shed":                          "count",
	"cloud.coalesce.queue_depth_max":               "count",
	"fusion.robust_add_us_mean.naive":              "us",
	"fusion.robust_add_us_mean.huber":              "us",
	"fusion.downweighted_cells":                    "count",
	"fusion.trimmed_cells":                         "count",
	"fusion.clamped_cells":                         "count",
	"cloud.fused_cache_hit_ratio":                  "ratio",
	"ecoroute.refreshes":                           "count",
	"ecoroute.refresh_ms_mean":                     "ms",
	"ecoroute.edges_recosted_per_refresh":          "count",
	"ecoroute.snapshot_hit_ratio":                  "ratio",
	"ecoroute.landmark_builds":                     "count",
	"ecoroute.cch_customizations.full":             "count",
	"ecoroute.cch_customizations.incremental":      "count",
	"ecoroute.cch_arcs_recomputed_frac":            "ratio",
	"ecoroute.route_ms_mean.fuel":                  "ms",
	"ecoroute.route_ms_mean.nox":                   "ms",
	"ecoroute.emission_row_builds":                 "count",
	"ecoroute.emission_edges_recomputed":           "count",
	"cloud.emissions.rebuilds":                     "count",
	"cloud.emissions.rebuild_ms_mean":              "ms",
	"cloud.emissions.roads_recomputed_per_rebuild": "count",
	"cloud.emissions.hit_ratio":                    "ratio",
	"runtime.gc_cycles":                            "count",
	"runtime.gc_pause_ms_total":                    "ms",
	"runtime.alloc_mb":                             "MB",
	"harness.gen_ms_per_km":                        "ms/km",
	"harness.lateness_ms_p99":                      "ms",
	"harness.ops":                                  "count",
	"harness.failed":                               "count",
}

func init() {
	for _, src := range sensors.AllSources() {
		perLayerUnits["core.track_ms_per_km."+src.String()] = "ms/km"
	}
}

// readRegistry reads the obs.Default series the per-layer metrics derive
// from. Histograms contribute "<key>.n" and "<key>.sum" (seconds, or items
// for the coalescer batch size).
func readRegistry() map[string]float64 {
	m := make(map[string]float64)
	counter := func(key, name string, labels ...obs.Label) {
		m[key] += float64(obs.Default.Counter(name, labels...).Value())
	}
	hist := func(key, name string, labels ...obs.Label) {
		h := obs.Default.Histogram(name, obs.LatencyBuckets, labels...)
		m[key+".n"] += float64(h.Count())
		m[key+".sum"] += h.Sum()
	}
	for _, mode := range []string{"batch", "streaming"} {
		counter("gate_rejected", "pipeline_gate_rejected_total", obs.L("mode", mode))
		counter("filter_resets", "pipeline_filter_resets_total", obs.L("mode", mode))
	}
	for _, reason := range []string{"empty", "layout", "non_finite", "bad_variance", "implausible_grade"} {
		counter("quarantined", "fusion_tracks_quarantined_total", obs.L("reason", reason))
	}
	counter("client_retries", "cloud_client_retries_total")
	for _, route := range []string{"submit_batch", "route", "emissions", "fused"} {
		hist("server."+route, "cloud_server_request_seconds", obs.L("route", route))
	}
	counter("folds", "cloud_coalesce_folds_total")
	hist("fold_items", "cloud_coalesce_batch_size")
	counter("shed", "cloud_submit_shed_total")
	for _, policy := range []string{"naive", "huber"} {
		hist("robust_add."+policy, "fusion_robust_add_seconds", obs.L("policy", policy))
	}
	counter("downweighted", "fusion_robust_downweighted_total")
	counter("trimmed", "fusion_robust_trimmed_total")
	counter("clamped", "fusion_robust_clamped_total")
	for _, cache := range []string{"snapshot", "encoded", "encoded_gzip"} {
		counter("fused_hits", "cloud_fused_cache_hits_total", obs.L("cache", cache))
		counter("fused_misses", "cloud_fused_cache_misses_total", obs.L("cache", cache))
	}
	counter("refreshes", "ecoroute_refreshes_total")
	hist("refresh", "ecoroute_refresh_seconds")
	counter("recosted", "ecoroute_cost_cache_misses_total")
	counter("snapshot_hits", "ecoroute_snapshot_hits_total")
	counter("landmark_builds", "ecoroute_landmark_builds_total")
	counter("cust_full", "ecoroute_cch_customizations_total", obs.L("kind", "full"))
	counter("cust_incr", "ecoroute_cch_customizations_total", obs.L("kind", "incremental"))
	for _, obj := range []string{"fuel", "nox"} {
		hist("route."+obj, "ecoroute_route_seconds", obs.L("objective", obj))
	}
	counter("emission_rows", "ecoroute_emission_row_builds_total")
	counter("emission_edges", "ecoroute_emission_edge_cache_misses_total")
	counter("emis_rebuilds", "cloud_emission_rebuilds_total")
	hist("emis_rebuild", "cloud_emission_rebuild_seconds")
	counter("emis_roads", "cloud_emission_roads_recomputed_total")
	counter("emis_hits", "cloud_emission_cache_hits_total")
	return m
}

// perLayer derives the per-layer metrics from the harness spans, the
// registry deltas and the harness tallies of one traced run.
func (h *harness) perLayer(p *phase) map[string]float64 {
	type total struct {
		n  int
		us float64
	}
	spans := make(map[string]total)
	for _, ev := range h.tr.Events() {
		key := ev.Name
		if src, ok := ev.Arg("source"); ok {
			key += "." + src
		}
		t := spans[key]
		t.n++
		t.us += ev.DurUS
		spans[key] = t
	}
	perKm := func(span string) float64 { return div(spans[span].us/1e3, h.km) }
	meanMs := func(span string) float64 { return div(spans[span].us/1e3, float64(spans[span].n)) }
	d := p.reg
	histMs := func(key string) float64 { return div(d[key+".sum"]*1e3, d[key+".n"]) }

	m := map[string]float64{
		"core.stream_us_per_record":    div(spans["core.stream"].us, float64(h.records)),
		"core.adjust_ms_per_km":        perKm("core.adjust"),
		"core.gate_rejected":           d["gate_rejected"],
		"core.filter_resets":           d["filter_resets"],
		"fusion.fuse_tracks_ms_per_km": perKm("fusion.fuse_tracks"),
		"fusion.tracks_quarantined":    d["quarantined"],

		"cloud.codec.encode_us_per_item": div(spans["cloud.codec.encode"].us, float64(h.codecItems)),
		"cloud.codec.decode_us_per_item": div(spans["cloud.codec.decode"].us, float64(h.codecItems)),
		"cloud.codec.bytes_per_item":     div(float64(h.codecBytes), float64(h.codecItems)),

		"cloud.client.submit_batch_ms_mean":  meanMs("cloud.client.submit_batch"),
		"cloud.client.route_ms_mean":         meanMs("cloud.client.route"),
		"cloud.client.emissions_ms_mean":     meanMs("cloud.client.emissions"),
		"cloud.client.fetch_profile_ms_mean": meanMs("cloud.client.fetch_profile"),
		"cloud.client.retries":               d["client_retries"],
		"cloud.server.submit_batch_ms_mean":  histMs("server.submit_batch"),
		"cloud.server.route_ms_mean":         histMs("server.route"),
		"cloud.server.emissions_ms_mean":     histMs("server.emissions"),
		"cloud.server.fused_ms_mean":         histMs("server.fused"),

		"cloud.coalesce.folds":           d["folds"],
		"cloud.coalesce.items_per_fold":  div(d["fold_items.sum"], d["fold_items.n"]),
		"cloud.coalesce.shed":            d["shed"],
		"cloud.coalesce.queue_depth_max": float64(p.maxQueue),

		"fusion.robust_add_us_mean.naive": histMs("robust_add.naive") * 1e3,
		"fusion.robust_add_us_mean.huber": histMs("robust_add.huber") * 1e3,
		"fusion.downweighted_cells":       d["downweighted"],
		"fusion.trimmed_cells":            d["trimmed"],
		"fusion.clamped_cells":            d["clamped"],
		"cloud.fused_cache_hit_ratio":     div(d["fused_hits"], d["fused_hits"]+d["fused_misses"]),

		"ecoroute.refreshes":                      d["refreshes"],
		"ecoroute.refresh_ms_mean":                histMs("refresh"),
		"ecoroute.edges_recosted_per_refresh":     div(d["recosted"], d["refreshes"]),
		"ecoroute.snapshot_hit_ratio":             div(d["snapshot_hits"], d["snapshot_hits"]+d["refreshes"]),
		"ecoroute.landmark_builds":                d["landmark_builds"],
		"ecoroute.cch_customizations.full":        d["cust_full"],
		"ecoroute.cch_customizations.incremental": d["cust_incr"],
		"ecoroute.cch_arcs_recomputed_frac":       mean(h.cchFrac),
		"ecoroute.route_ms_mean.fuel":             histMs("route.fuel"),
		"ecoroute.route_ms_mean.nox":              histMs("route.nox"),
		"ecoroute.emission_row_builds":            d["emission_rows"],
		"ecoroute.emission_edges_recomputed":      d["emission_edges"],

		"cloud.emissions.rebuilds":                     d["emis_rebuilds"],
		"cloud.emissions.rebuild_ms_mean":              histMs("emis_rebuild"),
		"cloud.emissions.roads_recomputed_per_rebuild": div(d["emis_roads"], d["emis_rebuilds"]),
		"cloud.emissions.hit_ratio":                    div(d["emis_hits"], d["emis_hits"]+d["emis_rebuilds"]),

		"runtime.gc_cycles":         float64(p.gcCycles),
		"runtime.gc_pause_ms_total": ms(p.gcPause),
		"runtime.alloc_mb":          float64(p.alloc) / (1 << 20),

		"harness.gen_ms_per_km":   div(ms(h.gen), h.km),
		"harness.lateness_ms_p99": quantile(h.lateness, 0.99),
		"harness.ops":             float64(h.ops.Load()),
		"harness.failed":          float64(h.failed.Load()),
	}
	for _, src := range sensors.AllSources() {
		m["core.track_ms_per_km."+src.String()] = perKm("core.estimate_track." + src.String())
	}
	return m
}

// div is a/b, or 0 when b is 0 (a layer the workload does not run).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return div(s, float64(len(xs)))
}

package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"roadgrade/internal/cloud"
	"roadgrade/internal/faultinject"
	"roadgrade/internal/fusion"
	"roadgrade/internal/road"
)

// ingest-fleet is the fleet-scale write path alone, on the same 706 roads:
// two closed-loop clients, in step, send binary batches of 256 submissions
// from 20,000 devices, a fifth of them running the const-bias adversary, into a
// huber-fusing store with the default 64-submission window. Codec, HTTP,
// coalescer, robust fold, device trust and window eviction run; the phone,
// routing and emission layers do not, so changes to those are predicted not
// to move it. After each batch the client reads one of the roads it just
// wrote back, which times read-after-write freshness under full ingest load.
//
// The map is seeded with three honest anonymous profiles per road before the
// fleet arrives, as an established map would be. On an empty map the
// attackers' first reports set each road's consensus, the map keeps a
// map-wide offset of about 0.2° that depends on who reported first, and its
// error then swings by a quarter from seed to seed.
//
// Roads and devices are split between the clients and a device submits at
// most once per batch (its replays are deduplicated and never fold), so
// every road's and every device's folds happen in a fixed order and the
// fused map is a pure function of the seed: its digest must repeat exactly
// across runs of one seed.
//
// That needs every replay deduplicated, and the server remembers only the
// last 128 keys per shard (4,096 over 32 shards). Road ids hash unevenly,
// 5 to 62 of the 706 roads to a shard, so the busiest shard takes up to
// about 47 keys of one batch. A replay therefore repeats an item of its own
// batch, and the clients send in rounds: both send their next batch
// together and wait for each other. At most two batches then land in a
// shard between an item and its replay, well under 128. With free-running
// clients replaying from their previous batch, a client that fell a few
// batches behind had a replay accepted and folded twice, about once in ten
// 30-second runs.

const (
	ingestClients    = 2
	ingestDevices    = 20000
	ingestBadFrac    = 0.2
	ingestBatch      = 256
	ingestReplayOdds = 20 // one item in 20 replays an earlier item of its batch
	ingestPrefill    = 3  // honest profiles per road before the fleet arrives
)

// ingestClasses are the device classes' shares and grade noise (radians):
// phones in trucks and buses shake more than phones in cars. A road's pool
// variant v carries class v%3's noise.
var ingestClasses = []struct{ frac, sigma float64 }{{0.7, 0.002}, {0.25, 0.004}, {0.05, 0.003}}

const ingestVariants = 8

// ingestItem is one scheduled submission. A replay repeats an earlier item
// verbatim — same road, device, profile and idempotency key.
type ingestItem struct {
	road    int32
	device  int32
	seq     int32 // the client's submission number; the key derives from it
	variant uint8
	replay  bool
}

// ingestInputs is the pre-generated fleet: pooled profiles, device ids and
// each client's batch schedule.
type ingestInputs struct {
	roadIDs []string
	devIDs  []string
	bad     []bool              // device runs the adversary
	pool    [][]*fusion.Profile // [road][variant] honest estimates
	poison  [][]*fusion.Profile // [road][variant] the same, corrupted
	sched   [][][]ingestItem    // [client][batch][item]
}

func genIngest(h *harness, nw *road.Network) *ingestInputs {
	in := &ingestInputs{
		roadIDs: make([]string, len(nw.Edges)),
		devIDs:  make([]string, ingestDevices),
		bad:     make([]bool, ingestDevices),
		pool:    make([][]*fusion.Profile, len(nw.Edges)),
		poison:  make([][]*fusion.Profile, len(nw.Edges)),
	}
	adv := &faultinject.ConstantBias{}
	rng := h.rng(1)
	for r, e := range nw.Edges {
		in.roadIDs[r] = e.Road.ID()
		for v := 0; v < ingestVariants; v++ {
			p := truthProfile(e.Road, ingestClasses[v%len(ingestClasses)].sigma, rng)
			bad := &fusion.Profile{SpacingM: p.SpacingM, S: p.S,
				GradeRad: append([]float64(nil), p.GradeRad...), Var: p.Var}
			adv.Corrupt(bad, 0, rng)
			in.pool[r] = append(in.pool[r], p)
			in.poison[r] = append(in.poison[r], bad)
			h.inputs.profile(p)
			h.inputs.profile(bad)
		}
	}
	class := make([]int, ingestDevices)
	for d := range in.devIDs {
		in.devIDs[d] = fmt.Sprintf("ph-%05d", d)
		u := rng.Float64()
		for c, acc := 0, 0.0; c < len(ingestClasses); c++ {
			acc += ingestClasses[c].frac
			class[d] = c
			if u < acc {
				break
			}
		}
		in.bad[d] = rng.Float64() < ingestBadFrac
		h.inputs.ints(class[d])
		h.inputs.ints(b2i(in.bad[d]))
	}

	// A device submits the pool variants carrying its class's noise.
	classVariants := make([][]uint8, len(ingestClasses))
	for v := 0; v < ingestVariants; v++ {
		c := v % len(ingestClasses)
		classVariants[c] = append(classVariants[c], uint8(v))
	}
	perm := rng.Perm(len(nw.Edges))
	in.sched = make([][][]ingestItem, ingestClients)
	for c := range in.sched {
		var roads []int32
		for i, r := range perm {
			if i%ingestClients == c {
				roads = append(roads, int32(r))
			}
		}
		devLo, devN := c*ingestDevices/ingestClients, ingestDevices/ingestClients
		seq := int32(0)
		batches := make([][]ingestItem, h.size.batches)
		for b := range batches {
			batch := make([]ingestItem, ingestBatch)
			for j := range batch {
				if j > 0 && rng.Intn(ingestReplayOdds) == 0 {
					// batch[0] is never a replay, so the draw ends.
					prev := batch[rng.Intn(j)]
					for prev.replay {
						prev = batch[rng.Intn(j)]
					}
					prev.replay = true
					batch[j] = prev
				} else {
					d := devLo + (b*ingestBatch+j)%devN
					vs := classVariants[class[d]]
					batch[j] = ingestItem{road: roads[rng.Intn(len(roads))], device: int32(d), seq: seq, variant: vs[rng.Intn(len(vs))]}
					seq++
				}
				it := batch[j]
				h.inputs.ints(int(it.road), int(it.device), int(it.seq), int(it.variant), b2i(it.replay))
			}
			batches[b] = batch
		}
		in.sched[c] = batches
	}
	return in
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// items materializes one scheduled batch.
func (in *ingestInputs) items(c, b int) []cloud.BatchItem {
	out := make([]cloud.BatchItem, len(in.sched[c][b]))
	for j, it := range in.sched[c][b] {
		p := in.pool[it.road][it.variant]
		if in.bad[it.device] {
			p = in.poison[it.road][it.variant]
		}
		out[j] = cloud.BatchItem{
			RoadID:  in.roadIDs[it.road],
			Key:     fmt.Sprintf("c%d-%d", c, it.seq),
			Device:  in.devIDs[it.device],
			Profile: p,
		}
	}
	return out
}

// ingestTally is one client's view of its run.
type ingestTally struct {
	rtt, fresh                          []float64 // ms
	accepted, duplicate, rejected, shed int64
	gen                                 time.Duration
}

func runIngest(h *harness) error {
	netCfg := road.NetworkConfig{TargetStreetKM: cityKM}
	nw, err := road.GenerateNetwork(networkSeed, netCfg)
	if err != nil {
		return err
	}
	in := genIngest(h, nw)
	policy, err := fusion.ParsePolicy("huber")
	if err != nil {
		return err
	}
	var rounds [][]*fusion.Profile
	for k := 0; k < ingestPrefill; k++ {
		round := make([]*fusion.Profile, len(nw.Edges))
		for r := range round {
			round[r] = in.pool[r][k*len(ingestClasses)] // variants 0, 3, 6: car noise
		}
		rounds = append(rounds, round)
	}
	st, err := h.setUp(stackConfig{
		netCfg:  netCfg,
		policy:  policy,
		prefill: rounds,
		warm: func(st *stack) error {
			_, err := st.client().ListRoads(context.Background())
			return err
		},
	})
	if err != nil {
		return err
	}
	tallies := make([]ingestTally, ingestClients)
	clients := make([]*cloud.Client, ingestClients)
	for c := range clients {
		clients[c] = st.client()
	}
	p := h.measure(st.srv, func() {
		for b := 0; b < h.size.batches; b++ {
			var wg sync.WaitGroup
			for c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h.ingestBatch(in, c, b, clients[c], &tallies[c])
				}()
			}
			wg.Wait()
		}
	})
	st.close()

	var t ingestTally
	for _, c := range tallies {
		t.rtt = append(t.rtt, c.rtt...)
		t.fresh = append(t.fresh, c.fresh...)
		t.accepted += c.accepted
		t.duplicate += c.duplicate
		t.rejected += c.rejected
		t.shed += c.shed
		h.gen += c.gen
	}
	if h.tamper {
		t.accepted++
	}
	var offered, replays int64
	for _, batches := range in.sched {
		for _, batch := range batches {
			for _, it := range batch {
				offered++
				replays += int64(b2i(it.replay))
			}
		}
	}
	h.check(t.accepted == offered-replays, "accepted %d, want offered %d - replays %d", t.accepted, offered, replays)
	h.check(t.duplicate == replays, "duplicates %d, want replays %d", t.duplicate, replays)
	h.check(t.rejected == 0 && t.shed == 0, "rejected %d, shed after retries %d, want 0", t.rejected, t.shed)

	fused, mae := mapState(st.srv, st.network)
	h.digests["fused_map"] = fused
	h.counts["submissions"] = offered
	h.counts["replays"] = replays
	h.counts["batches"] = int64(len(t.rtt))
	h.counts["probes"] = int64(len(t.fresh))

	h.e2e["request_p50_ms"] = quantile(t.rtt, 0.50)
	h.e2e["freshness_p50_ms"] = quantile(t.fresh, 0.50)
	h.setTails(t.rtt, t.fresh)
	h.e2e["unit_cost_ms"] = ms(p.cpu) / float64(t.accepted) * 1000
	h.e2e["map_mae_deg"] = mae
	h.finish(p)

	// The codec is timed after the phase, over every batch sent, so the
	// measured phase carries no extra encode work.
	if h.tr != nil {
		for b := 0; b < h.size.batches; b++ {
			for c := range in.sched {
				if _, err := h.roundTrip(in.items(c, b)); err != nil {
					return fmt.Errorf("re-encoding client %d batch %d: %w", c, b, err)
				}
			}
		}
	}
	return nil
}

// ingestBatch sends client c's batch b and then reads back the fused
// profile of its first road.
func (h *harness) ingestBatch(in *ingestInputs, c, b int, cl *cloud.Client, t *ingestTally) {
	ctx := context.Background()
	g0 := time.Now()
	items := in.items(c, b)
	t.gen += time.Since(g0)
	t0 := time.Now()
	_, sp := h.tr.StartCtx(ctx, "cloud.client.submit_batch", "cloud")
	res, err := cl.SubmitBatch(ctx, items)
	sp.End()
	accepted := time.Now()
	if !h.op("submitting batch", err) {
		return
	}
	t.rtt = append(t.rtt, ms(accepted.Sub(t0)))
	for _, r := range res {
		switch r.Status {
		case "accepted":
			t.accepted++
		case "duplicate":
			t.duplicate++
		case "shed":
			t.shed++
		default:
			t.rejected++
		}
	}
	_, sp = h.tr.StartCtx(ctx, "cloud.client.fetch_profile", "cloud")
	prof, err := cl.FetchProfile(ctx, items[0].RoadID)
	sp.End()
	fresh := time.Since(accepted)
	if h.op("probe fused profile", err) {
		t.fresh = append(t.fresh, ms(fresh))
		h.check(prof.Len() == items[0].Profile.Len(), "fused profile of %s has %d cells, want %d",
			items[0].RoadID, prof.Len(), items[0].Profile.Len())
	}
}

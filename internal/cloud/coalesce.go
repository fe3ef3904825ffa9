package cloud

// The store's write path: one fold, and the write coalescer that feeds it
// passes.
//
// fold lands a pass of submissions in one shard in arrival order. Every
// submission goes through it: the Go API and the single-profile door fold a
// one-item pass inline (SubmitIdempotentDevice), the batch door folds each
// item as a one-item pass on a server with no coalescer, and the
// coalescer's workers fold the passes they drain.
//
// The coalescer is the fleet-scale ingest path. Handlers validate and decode
// submissions, then append them to a bounded per-shard queue; one worker
// goroutine per shard drains its queue in passes, so one shard-lock hold
// covers a pass's idempotency reservations instead of one per request.
// Because a pass folds in arrival order, the result is bit-identical to
// submitting the same items one by one: every road's fused map and every
// device's trust state.
//
// The queue is also the admission controller. Enqueue never blocks: when a
// shard's queue is full the item is shed, the handler answers 429 with
// Retry-After, and the client's retry/backoff machinery (PR 2) re-submits
// just the shed items — per-item idempotency keys make over-retry harmless.

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
)

// Coalescer instrumentation, counted by the workers alone: queue depth is
// the backpressure signal, the batch-size histogram shows how much
// amortization the coalescer achieves (mean batch size = items per pass),
// folds count passes, and the shed counter is the load-shedding rate.
var (
	obsCoalesceFolds = obs.Default.Counter("cloud_coalesce_folds_total")
	obsCoalesceBatch = obs.Default.Histogram("cloud_coalesce_batch_size",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	obsSubmitShed = obs.Default.Counter("cloud_submit_shed_total")
)

// Per-item batch outcomes.
const (
	statusAccepted  = "accepted"
	statusDuplicate = "duplicate"
	statusRejected  = "rejected"
	statusShed      = "shed"
)

// BatchItemResult is one submission's outcome inside a batch response.
type BatchItemResult struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// pendingItem is one submission of a fold pass and its outcome. A queued
// item's worker writes res and then calls done.Done(); the enqueueing
// handler reads res only after done.Wait(), so no further synchronization is
// needed.
type pendingItem struct {
	BatchItem
	res  BatchItemResult
	done *sync.WaitGroup // nil when folded inline
	// sc is the enqueueing handler span's context; the fold span links back
	// to it so a trace crosses the async queue boundary. Zero when the
	// request was untraced or the item folds inline.
	sc obs.SpanContext
}

// CoalesceConfig shapes the write coalescer.
type CoalesceConfig struct {
	// QueueDepth bounds each shard's pending queue; a full queue sheds
	// (default 1024 items/shard).
	QueueDepth int
	// BatchMax caps how many queued items one fold pass drains
	// (default 512).
	BatchMax int
}

// withDefaults fills zero fields.
func (c CoalesceConfig) withDefaults() CoalesceConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 512
	}
	return c
}

// coalescer owns the per-shard queues and workers.
type coalescer struct {
	cfg    CoalesceConfig
	queues []chan *pendingItem
	quit   chan struct{}
	wg     sync.WaitGroup

	// shed counts submissions dropped by admission control since the
	// coalescer started (per server, unlike the process-wide obs counter;
	// surfaced on /healthz via CoalesceStats).
	shed atomic.Uint64

	// mu serializes enqueues against Close: enqueue holds the read side, so
	// once Close holds the write side and flips closed, no new item can
	// enter a queue and the final drain is complete.
	mu     sync.RWMutex
	closed bool
}

// EnableCoalescing switches the batch ingest path to per-shard write
// coalescing: one worker per shard folds queued submissions in arrival
// order, and full queues shed with 429 + Retry-After. Call before serving;
// calling on a server that already coalesces is a no-op. Stop the workers
// with Close.
func (s *Server) EnableCoalescing(cfg CoalesceConfig) {
	if s.coal != nil {
		return
	}
	c := &coalescer{
		cfg:    cfg.withDefaults(),
		queues: make([]chan *pendingItem, len(s.shards)),
		quit:   make(chan struct{}),
	}
	for i := range c.queues {
		c.queues[i] = make(chan *pendingItem, c.cfg.QueueDepth)
	}
	s.coal = c
	obs.Default.GaugeFunc("cloud_submit_queue_depth", func() float64 {
		n := 0
		for _, q := range c.queues {
			n += len(q)
		}
		return float64(n)
	})
	c.wg.Add(len(s.shards))
	for i := range s.shards {
		go s.coalesceWorker(i)
	}
}

// Close stops the coalescer workers, folding everything already queued
// before returning. Safe to call multiple times and on a server that never
// enabled coalescing. After Close, batch submissions shed (the server is
// shutting down).
func (s *Server) Close() {
	c := s.coal
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.quit)
	c.wg.Wait()
}

// enqueue appends items to their shard queues without blocking. Items that
// don't fit (or arrive after Close) are marked shed immediately; the rest
// will have their outcome written by a shard worker. Returns the number
// shed. The items' done must have been Add'ed for len(items) by the caller;
// shed items are Done'd here.
func (s *Server) enqueue(items []pendingItem) (shed int) {
	c := s.coal
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := range items {
		it := &items[i]
		if c.closed {
			it.res.Status = statusShed
			it.done.Done()
			shed++
			continue
		}
		q := c.queues[fnv1a(it.RoadID)&s.shardMask]
		select {
		case q <- it:
		default:
			it.res.Status = statusShed
			it.done.Done()
			shed++
		}
	}
	if shed > 0 {
		c.shed.Add(uint64(shed))
		obsSubmitShed.Add(uint64(shed))
	}
	return shed
}

// CoalesceStats reports the write coalescer's health for probes (/healthz):
// whether coalescing is enabled, the items currently queued across shards,
// and the total submissions shed by admission control.
func (s *Server) CoalesceStats() (enabled bool, queued int, shed uint64) {
	c := s.coal
	if c == nil {
		return false, 0, 0
	}
	return true, c.queueDepth(), c.shed.Load()
}

// coalesceWorker drains shard i's queue until Close. Each pass collects up
// to BatchMax items that are already waiting and folds them in one shot.
func (s *Server) coalesceWorker(i int) {
	c := s.coal
	defer c.wg.Done()
	q := c.queues[i]
	buf := make([]*pendingItem, 0, c.cfg.BatchMax)
	pass := func(first *pendingItem) {
		buf = s.collect(append(buf[:0], first), q)
		obsCoalesceFolds.Inc()
		obsCoalesceBatch.Observe(float64(len(buf)))
		s.fold(&s.shards[i], buf)
		for _, it := range buf {
			it.done.Done()
		}
		// A stale pointer left in buf would pin its request's items, and
		// every profile they carry, until a later batch overwrites it.
		clear(buf)
	}
	for {
		select {
		case it := <-q:
			pass(it)
		case <-c.quit:
			// Drain what made it into the queue before the close; enqueue
			// is excluded by c.mu, so an empty queue here is final.
			for {
				select {
				case it := <-q:
					pass(it)
				default:
					return
				}
			}
		}
	}
}

// collect greedily drains waiting items into buf, up to BatchMax.
func (s *Server) collect(buf []*pendingItem, q chan *pendingItem) []*pendingItem {
	for len(buf) < s.coal.cfg.BatchMax {
		select {
		case it := <-q:
			buf = append(buf, it)
		default:
			return buf
		}
	}
	return buf
}

// fold lands one pass of submissions in shard sh, writing each item's
// outcome to its res:
//
//  1. one shard-lock hold reserves every idempotency key (duplicates are
//     settled here and skip the fold); a pass without keys skips the lock;
//  2. the other items are added in arrival order, each under its own road's
//     lock, its device entry looked up before that lock is taken; each
//     accepted item bumps its road's generation;
//  3. one shard-lock hold releases the keys of rejected items, so they stay
//     retryable;
//  4. the change feed records each changed road once, with a publish of the
//     routing engine marked pending around it: a query that reads the new
//     generation waits for the engine's publisher, which the fold then
//     wakes without waiting for it.
//
// A rejected item's error names the road, whichever door or pass it came
// through: cloud: road r: <reason>.
//
// Arrival order across roads is what makes a pass bit-identical to folding
// its items one by one: the RobustAccumulator.AddDeviceReport calls, and so
// every road's fused cells and every device's trust state, come in the same
// sequence either way.
//
// When any item carries a span context, the whole pass is wrapped in a fold
// span — its own single-span trace, always kept by the tail sampler
// (keep=fold) — that links back to each distinct request span it folded for,
// annotated with the robust-fusion outcome (downweighted/trimmed/clamped
// cells) so a trace shows what trust machinery did to a submission.
func (s *Server) fold(sh *shard, items []*pendingItem) {
	var span *obs.Span
	if tr := s.tracer(); tr.Enabled() {
		var linked []obs.SpanContext
		for _, it := range items {
			if it.sc.IsValid() && !slices.Contains(linked, it.sc) {
				linked = append(linked, it.sc)
			}
		}
		if len(linked) > 0 {
			span = tr.Start("coalesce:fold", "cloud",
				obs.L("keep", "fold"), obs.L("batch", strconv.Itoa(len(items))))
			for _, sc := range linked {
				span.Link(sc)
			}
		}
	}

	var dups, rejected int
	if slices.ContainsFunc(items, func(it *pendingItem) bool { return it.Key != "" }) {
		sh.mu.Lock()
		for _, it := range items {
			if it.Key != "" && sh.dedup.reserve(it.Key) {
				it.res.Status = statusDuplicate
				dups++
			}
		}
		sh.mu.Unlock()
	}

	var accepted uint64
	var robust fusion.FoldReport
	var rejectedKeys []string
	// Roads with an accepted item, first acceptance first. The array keeps
	// the inline one-item pass free of allocations.
	var changedBuf [8]string
	changed := changedBuf[:0]
	for _, it := range items {
		if it.res.Status == statusDuplicate {
			continue
		}
		var de *deviceEntry
		if it.Device != "" {
			de = s.deviceFor(it.Device)
		}
		rs := s.roadFor(it.RoadID)
		rs.mu.Lock()
		rep, err := rs.addLocked(it.Profile, de)
		if err == nil {
			rs.gen++ // invalidates the fused snapshot and encoded caches
		}
		rs.mu.Unlock()
		if err != nil {
			it.res = BatchItemResult{Status: statusRejected, Error: "cloud: road " + it.RoadID + ": " + err.Error()}
			rejected++
			if it.Key != "" {
				rejectedKeys = append(rejectedKeys, it.Key)
			}
			continue
		}
		robust.Downweighted += rep.Downweighted
		robust.Trimmed += rep.Trimmed
		robust.Clamped += rep.Clamped
		it.res.Status = statusAccepted
		accepted++
		if !slices.Contains(changed, it.RoadID) {
			changed = append(changed, it.RoadID)
		}
	}
	if len(rejectedKeys) > 0 {
		sh.mu.Lock()
		for _, k := range rejectedKeys {
			sh.dedup.release(k)
		}
		sh.mu.Unlock()
	}
	if accepted > 0 {
		eng := s.router
		if eng != nil {
			eng.MarkPending()
		}
		s.feed.record(accepted, changed...)
		if eng != nil {
			eng.Wake()
		}
	}
	// End the fold span before the caller releases the handlers: by the
	// time a batch response reaches the client, the fold's link into that
	// request trace is already in the trace store.
	if span != nil {
		span.Annotate("accepted", strconv.FormatUint(accepted, 10))
		span.Annotate("duplicate", strconv.Itoa(dups))
		span.Annotate("rejected", strconv.Itoa(rejected))
		span.Annotate("downweighted_cells", strconv.FormatUint(robust.Downweighted, 10))
		span.Annotate("trimmed_cells", strconv.FormatUint(robust.Trimmed, 10))
		span.Annotate("clamped_cells", strconv.FormatUint(robust.Clamped, 10))
		span.End()
	}
}

// foldOne folds one validated submission inline, as a one-item pass on the
// caller's goroutine.
func (s *Server) foldOne(it *pendingItem) {
	s.fold(s.shardFor(it.RoadID), []*pendingItem{it})
}

// queueDepth returns the total queued items (for tests and health checks).
func (c *coalescer) queueDepth() int {
	n := 0
	for _, q := range c.queues {
		n += len(q)
	}
	return n
}

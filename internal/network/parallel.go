package network

// Sharded parallel stepping (DESIGN.md §11).
//
// Step's four per-cycle phases fan out across a bounded pool of worker
// goroutines, each owning a contiguous range of router IDs. Within a
// phase a worker runs the *same* handler bodies as the sequential path,
// mutating only state its own routers/NIs own; every effect that crosses
// a shard boundary (buffer pushes and meter/stat charges on a downstream
// router, NI ejection, credit returns to an upstream port, activity-set
// marks, global counters, the watchdog progress stamp) is staged in
// per-shard buffers and applied by the main goroutine between phases.
//
// Determinism argument, in short: the commit replays staged effects in
// shard order, and shards partition router IDs contiguously and in
// ascending order — so the commit order is exactly the ascending-ID
// order the sequential walk uses. Effects that commute (per-router
// int/int64 counters, single-writer slice elements, OR-ing activity
// bits, at-most-one-per-target pushes) need no ordering at all; the only
// order-sensitive effects are NI ejections (they touch global latency
// floats and may enqueue control packets, advancing the shared packet
// sequence), and those replay in the sequential order. Per-link fault
// randomness comes from counter-based streams keyed on (seed, link,
// cycle), so draw sequences are independent of execution order entirely.
// Hence: bit-identical results at a fixed seed for every worker count.

import (
	"runtime"
	"sync"

	"rlnoc/internal/config"
	"rlnoc/internal/flit"
	"rlnoc/internal/stats"
	"rlnoc/internal/topology"
)

// wireOp is the staged downstream half of one link arrival (or local
// ejection): which router it lands on and which effects to apply there.
type wireOp struct {
	f      *flit.Flit
	down   int32
	inPort topology.Direction
	flags  uint8
}

const (
	opCRCCheck  uint8 = 1 << iota // charge CRC-snoop energy at down
	opECCDecode                   // charge SECDED decode energy at down
	opNACKOut                     // count a NACK sent by down
	opAccept                      // push f into down's input VC
	opEject                       // hand f to down's NI
)

// creditOp is a staged credit return to an upstream router's output port
// (a Router.up entry; always delivered at cycle+1, so the deliver stamp is
// implicit).
type creditOp struct {
	up *outputPort
	vc int8
}

// statEvent indexes the global Collector counters that phase handlers
// bump. Workers accumulate them in a per-shard delta (pre-gated on
// Measuring(), which only changes between cycles); the sequential path
// goes through Measuref exactly as before.
type statEvent uint8

const (
	evErrorsInjected statEvent = iota
	evECCCorrections
	evECCDetections
	evLinkNACKs
	evPreRetransmissions
	evLinkRetransmissions
	numStatEvents
)

// shardState is one worker's slice of the fabric plus its staging
// buffers. All buffers are reset (length zero, backing arrays kept) by
// the commits, so steady-state parallel stepping allocates nothing.
type shardState struct {
	lo, hi int // router ID range [lo, hi)

	// pool is this shard's private flit pool. Flits are fully reset on
	// Get and carry no pool identity, so which pool served a flit is
	// invisible to simulation results; private pools just remove the
	// only remaining cross-shard mutation in the compute phases.
	pool flit.Pool

	ops     []wireOp   // phase 1: staged downstream arrival effects
	credits []creditOp // phase 4: staged upstream credit returns

	// Staged activity-set marks (bit per router), merged by OR at commit.
	wireMarks []uint64
	pipeMarks []uint64

	// Staged activity-set removals. A handler only ever drops the router
	// it just ran, after seeing it quiet, so removals cannot conflict
	// with each other; they are applied after the phase's marks merge.
	wireDrops []int
	niDrops   []int
	pipeDrops []int

	d        [numStatEvents]int64 // staged global-counter increments
	progress bool                 // staged lastProgress = current cycle

	// Staged drop-reason counts. Separate from d because drop counters
	// are always-on (the conservation ledger spans the whole run) while
	// d is pre-gated on Measuring().
	dd [stats.NumDropReasons]int64
}

func (sh *shardState) setWire(id int) { sh.wireMarks[id>>6] |= 1 << uint(id&63) }
func (sh *shardState) setPipe(id int) { sh.pipeMarks[id>>6] |= 1 << uint(id&63) }

// markWireCtx/markPipeCtx/progressCtx are the staging seams used inside
// shared phase bodies: direct on the sequential/dense paths (sh == nil),
// staged on the shard during a parallel compute pass.
func (n *Network) markWireCtx(id int, sh *shardState) {
	if sh != nil {
		sh.setWire(id)
		return
	}
	n.markWire(id)
}

func (n *Network) markPipeCtx(id int, sh *shardState) {
	if sh != nil {
		sh.setPipe(id)
		return
	}
	n.markPipe(id)
}

func (n *Network) progressCtx(sh *shardState) {
	if sh != nil {
		sh.progress = true
		return
	}
	n.lastProgress = n.cycle
}

// countStat bumps one global counter: staged when parallel, through the
// collector's Measuref gate when sequential. The parallel pre-gate reads
// Measuring() during compute, which is safe because measurement toggles
// only between cycles.
func (n *Network) countStat(ev statEvent, sh *shardState) {
	if sh != nil {
		if n.stats.Measuring() {
			sh.d[ev]++
		}
		return
	}
	switch ev {
	case evErrorsInjected:
		n.stats.Measuref(func(c *statsCollector) { c.ErrorsInjected++ })
	case evECCCorrections:
		n.stats.Measuref(func(c *statsCollector) { c.ECCCorrections++ })
	case evECCDetections:
		n.stats.Measuref(func(c *statsCollector) { c.ECCDetections++ })
	case evLinkNACKs:
		n.stats.Measuref(func(c *statsCollector) { c.LinkNACKs++ })
	case evPreRetransmissions:
		n.stats.Measuref(func(c *statsCollector) { c.PreRetransmissions++ })
	case evLinkRetransmissions:
		n.stats.Measuref(func(c *statsCollector) { c.LinkRetransmissions++ })
	}
}

// countDrop counts one flit discard: staged on the shard when running a
// parallel compute pass, directly on the collector otherwise. Drop
// counters are always-on — no Measuring() gate — because the invariant
// layer's conservation ledger must close over the whole run.
func (n *Network) countDrop(r stats.DropReason, sh *shardState) {
	if sh != nil {
		sh.dd[r]++
		return
	}
	n.stats.Drop(r)
}

// applyStatDelta folds a shard's staged counter increments into the
// collector and clears the delta.
func (n *Network) applyStatDelta(sh *shardState) {
	d := &sh.d
	c := n.stats
	c.ErrorsInjected += d[evErrorsInjected]
	c.ECCCorrections += d[evECCCorrections]
	c.ECCDetections += d[evECCDetections]
	c.LinkNACKs += d[evLinkNACKs]
	c.PreRetransmissions += d[evPreRetransmissions]
	c.LinkRetransmissions += d[evLinkRetransmissions]
	*d = [numStatEvents]int64{}
	for r := range sh.dd {
		if sh.dd[r] != 0 {
			c.DropAdd(stats.DropReason(r), sh.dd[r])
			sh.dd[r] = 0
		}
	}
}

// minShardRouters is the coarsening floor applied to auto-derived
// worker counts (RLNOC_STEP_WORKERS): each shard gets at least this
// many routers, so per-phase dispatch overhead amortizes over real
// work. An explicit Config.StepWorkers is honored
// exactly — equivalence tests pin shard layouts that way.
const minShardRouters = 16

// resolveStepWorkers turns the configured worker count into the
// effective one through the shared config precedence (explicit config,
// then RLNOC_STEP_WORKERS, then the sequential default of 1); the result
// is clamped to [1, nodes], and non-explicit counts are additionally
// coarsened to at least minShardRouters routers per shard — provenance
// from the resolver is what distinguishes a pinned test layout from an
// ambient environment hint.
func resolveStepWorkers(cfg, nodes int) int {
	w, src := config.ResolveInt(config.EnvStepWorkers, cfg, 1)
	if w < 1 {
		w = 1
	}
	if w > nodes {
		w = nodes
	}
	if src != config.SourceExplicit {
		if maxShards := (nodes + minShardRouters - 1) / minShardRouters; w > maxShards {
			w = maxShards
		}
	}
	return w
}

// shardRange returns the contiguous router-ID range [lo, hi) owned by
// worker w of workers over nodes routers. The ranges for w = 0..workers-1
// partition [0, nodes) in ascending order; when workers > nodes some
// ranges are empty. Every router — and therefore every (router, port)
// pair — is owned by exactly one shard (TestShardRangePartition).
func shardRange(w, workers, nodes int) (lo, hi int) {
	return w * nodes / workers, (w + 1) * nodes / workers
}

// buildShards partitions router IDs into workers contiguous ranges and
// points each router/NI at its shard's flit pool and staging state.
func (n *Network) buildShards() {
	nodes := n.topo.Nodes()
	words := (nodes + 63) / 64
	n.shards = make([]shardState, n.workers)
	for w := range n.shards {
		sh := &n.shards[w]
		sh.lo, sh.hi = shardRange(w, n.workers, nodes)
		sh.wireMarks = make([]uint64, words)
		sh.pipeMarks = make([]uint64, words)
		for id := sh.lo; id < sh.hi; id++ {
			n.routers[id].pool = &sh.pool
			n.nis[id].pool = &sh.pool
			n.nis[id].sh = sh
		}
	}
}

// poolTotals aggregates Get/new/Put counts and free-list sizes across
// the network pool and all shard pools (the pool-balance invariants hold
// for the aggregate, not per pool, once flits migrate across shards).
func (n *Network) poolTotals() (gets, news, puts int64, size int) {
	gets, news, puts = n.fpool.Stats()
	size = n.fpool.Size()
	for i := range n.shards {
		g, nw, p := n.shards[i].pool.Stats()
		gets += g
		news += nw
		puts += p
		size += n.shards[i].pool.Size()
	}
	return
}

// Phase identifiers dispatched to workers. phaseLocal fuses the old
// inject/route/switch trio into one dispatch round: all three stages
// read and write only shard-owned state (injection fills the shard's
// own Local VCs; RC/VA/SA walk the shard's own routers with every
// cross-shard effect staged), and within the shard the stages still run
// to completion in order, so no router's RC can observe another
// router's SA output any differently than the sequential walk — RC and
// VA read only their own router's buffers, ports and credit counters.
const (
	phaseWires = iota
	phaseCommitWires
	phaseLocal
)

// workerHub owns the persistent worker goroutines. fn is set around each
// dispatch round and cleared while idle so an idle hub holds no path
// back to the Network, letting the finalizer fire if the owner forgets
// Close.
type workerHub struct {
	start []chan int
	wg    sync.WaitGroup
	stop  chan struct{}
	fn    func(w, phase int)
}

func hubWorker(hub *workerHub, w int) {
	start := hub.start[w]
	for {
		select {
		case phase := <-start:
			hub.fn(w, phase)
			hub.wg.Done()
		case <-hub.stop:
			return
		}
	}
}

// ensureHub lazily spawns the worker goroutines on the first parallel
// step.
func (n *Network) ensureHub() {
	if n.hub != nil {
		return
	}
	hub := &workerHub{start: make([]chan int, len(n.shards)), stop: make(chan struct{})}
	for w := range hub.start {
		hub.start[w] = make(chan int, 1)
		go hubWorker(hub, w)
	}
	n.hub = hub
	runtime.SetFinalizer(n, finalizeNetwork)
}

func finalizeNetwork(n *Network) { n.Close() }

// Close stops the worker goroutines. Safe to call multiple times and on
// networks that never stepped in parallel; a finalizer also runs it, so
// leaking a Network cannot leak its workers.
func (n *Network) Close() {
	if n.hub != nil {
		close(n.hub.stop)
		n.hub = nil
	}
}

// runPhase dispatches one phase to every worker and waits for all of
// them. The channel send/receive pairs order the main goroutine's writes
// (cycle, committed state) before the workers' reads, and wg.Wait orders
// the workers' writes before the subsequent commit reads them.
func (n *Network) runPhase(phase int) {
	hub := n.hub
	hub.fn = n.runShardPhase
	hub.wg.Add(len(hub.start))
	for _, c := range hub.start {
		c <- phase
	}
	hub.wg.Wait()
	hub.fn = nil
}

// runShardPhase executes one phase's compute pass over one shard. The
// bodies are the sequential handlers with sh as the staging seam;
// iteration is in ascending ID order within the shard, and shards are
// ascending disjoint ranges, so the union of all shard walks visits
// exactly the routers the sequential walk visits.
func (n *Network) runShardPhase(w, phase int) {
	sh := &n.shards[w]
	switch phase {
	case phaseWires:
		n.wireActive.forEachIn(sh.lo, sh.hi, func(id int) {
			r := n.routers[id]
			n.stepWires(r, sh)
			if r.wiresQuiet() {
				sh.wireDrops = append(sh.wireDrops, id)
			}
		})
	case phaseCommitWires:
		n.commitWiresShard(sh)
	case phaseLocal:
		// Injection first, then RC/VA over every router with pipeline
		// work, then SA/ST — the sequential phase order, confined to the
		// shard. Injection stages its pipe marks on the shard (always the
		// NI's own router), so the RC/VA and SA walks iterate the shared
		// set overlaid with those marks to see this cycle's injections,
		// exactly as the sequential path's live marking does.
		n.niActive.forEachIn(sh.lo, sh.hi, func(id int) {
			ni := n.nis[id]
			ni.inject(n.cycle)
			if ni.quiet() {
				sh.niDrops = append(sh.niDrops, id)
			}
		})
		n.pipeActive.forEachInWith(sh.lo, sh.hi, sh.pipeMarks, func(id int) {
			n.routeAndAllocate(n.routers[id])
		})
		n.pipeActive.forEachInWith(sh.lo, sh.hi, sh.pipeMarks, func(id int) {
			r := n.routers[id]
			n.switchAllocate(r, sh)
			if r.pipeQuiet() {
				sh.pipeDrops = append(sh.pipeDrops, id)
			}
		})
	}
}

// stepParallel runs one cycle sharded across the worker pool: the wire
// phase, its commit, then the fused local phase (inject + RC/VA +
// SA/ST) and its commit — two dispatch rounds per cycle instead of the
// original four (three when the wire commit itself goes parallel).
func (n *Network) stepParallel() {
	n.ensureHub()
	n.inParallel = true

	// Phase 1: arrivals, ACK/NACK wires, credit returns, VC releases.
	n.runPhase(phaseWires)
	n.commitWires()

	// Phase 2: injection, route computation / VC allocation, switch
	// allocation / traversal, fused per shard (injection may consume
	// control packets enqueued by the wire commit's ejections, same as
	// the sequential order).
	n.runPhase(phaseLocal)
	n.commitLocal()

	n.inParallel = false
}

// commitWiresParallelMin is the network-wide staged-op count below
// which the wire commit applies everything inline on the main
// goroutine: a dispatch round costs more than a short serial replay.
// The threshold affects scheduling only, never results — the
// partitioned apply is bit-identical to the serial one.
const commitWiresParallelMin = 64

// commitWires applies phase 1's staged effects: every arrival's
// downstream half in ascending (shard, index) order — which is the
// ascending (router, port) order of the sequential walk — then counter
// deltas, pipeline marks and activity drops.
//
// When enough ops are staged, the non-conflicting bulk commits
// concurrently: each worker applies the ops landing on routers it owns
// (meter charges, per-router stat windows, buffer pushes — all state
// indexed by the owned router), scanning all shards' op lists in the
// same global order as the serial replay so per-router effect order is
// preserved. Only ejections stay on the ordered main-goroutine pass:
// NI receive moves global latency accumulators, recycles packets and
// may build control packets (advancing the shared packet sequence) —
// order-sensitive work. Reordering the ejections after the accepts is
// invisible: the two classes touch disjoint state, and each class
// retains its global order. Runs with condemned attempts (the poison
// screen reads cross-shard fault state) or learned routing (TD updates
// write upstream routers' agents) keep the fully serial replay.
func (n *Network) commitWires() {
	total := 0
	for w := range n.shards {
		total += len(n.shards[w].ops)
	}
	if total >= commitWiresParallelMin && n.condemned == nil && n.qr == nil {
		n.runPhase(phaseCommitWires)
		for w := range n.shards {
			sh := &n.shards[w]
			for i := range sh.ops {
				if sh.ops[i].flags&opEject != 0 {
					n.applyWireOp(sh.ops[i])
				}
				sh.ops[i] = wireOp{} // drop the flit reference
			}
			sh.ops = sh.ops[:0]
		}
	} else {
		for w := range n.shards {
			sh := &n.shards[w]
			for i := range sh.ops {
				n.applyWireOp(sh.ops[i])
				sh.ops[i] = wireOp{}
			}
			sh.ops = sh.ops[:0]
		}
	}
	for w := range n.shards {
		sh := &n.shards[w]
		n.applyStatDelta(sh)
		if sh.progress {
			n.lastProgress = n.cycle
			sh.progress = false
		}
		n.pipeActive.merge(sh.pipeMarks)
		for _, id := range sh.wireDrops {
			n.wireActive.remove(id)
		}
		sh.wireDrops = sh.wireDrops[:0]
	}
}

// commitWiresShard applies, for one shard, every staged wire-op landing
// on a router the shard owns — except ejections, which the main
// goroutine replays afterwards in global order. All shards' op lists
// are scanned in the same (shard, index) order as the serial replay, so
// the per-router effect order is identical; ops for other shards'
// routers are skipped (their owners apply them concurrently).
func (n *Network) commitWiresShard(sh *shardState) {
	for w := range n.shards {
		src := &n.shards[w]
		for i := range src.ops {
			op := &src.ops[i]
			if down := int(op.down); down < sh.lo || down >= sh.hi || op.flags&opEject != 0 {
				continue
			}
			n.applyWireOpOwned(op, sh)
		}
	}
}

// commitLocal applies the fused local phase's staged effects in shard
// order: credit returns to upstream ports (at most one per port per
// cycle, so order across shards cannot matter; replayed in shard order
// anyway for a canonical credRet layout), wire and pipeline activity
// marks, counter deltas, progress, and NI/pipeline activity drops. The
// pipe marks merge before the pipe drops; they can never name the same
// router, because an injection mark implies an occupied VC and an
// occupied router is never dropped as quiet.
func (n *Network) commitLocal() {
	for w := range n.shards {
		sh := &n.shards[w]
		for _, c := range sh.credits {
			n.returnCredit(c.up, int(c.vc))
		}
		sh.credits = sh.credits[:0]
		n.wireActive.merge(sh.wireMarks)
		n.pipeActive.merge(sh.pipeMarks)
		n.applyStatDelta(sh)
		if sh.progress {
			n.lastProgress = n.cycle
			sh.progress = false
		}
		for _, id := range sh.niDrops {
			n.niActive.remove(id)
		}
		sh.niDrops = sh.niDrops[:0]
		for _, id := range sh.pipeDrops {
			n.pipeActive.remove(id)
		}
		sh.pipeDrops = sh.pipeDrops[:0]
	}
}

// StepWorkers returns the resolved worker count.
func (n *Network) StepWorkers() int { return n.workers }

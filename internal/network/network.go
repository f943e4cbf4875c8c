package network

import (
	"fmt"
	"math/bits"

	"rlnoc/internal/coding"
	"rlnoc/internal/config"
	"rlnoc/internal/detrand"
	"rlnoc/internal/eventlog"
	"rlnoc/internal/fault"
	"rlnoc/internal/flit"
	"rlnoc/internal/invariant"
	"rlnoc/internal/power"
	"rlnoc/internal/rl"
	"rlnoc/internal/stats"
	"rlnoc/internal/thermal"
	"rlnoc/internal/topology"
)

// statsCollector aliases the stats type for the Measuref closures.
type statsCollector = stats.Collector

// pipelineFill is the number of cycles between a flit entering an input
// buffer and becoming eligible for switch allocation (the RC and VA
// stages of the 4-stage pipeline; SA and ST follow, giving the 4-stage
// zero-load hop of Table II).
const pipelineFill = 2

// PipelineStages is the modelled router pipeline depth (RC, VA, SA, ST)
// Table II reports.
const PipelineStages = pipelineFill + 2

// watchdogCycles is how long the network may go without any flit movement
// while traffic is outstanding before Step reports a deadlock.
const watchdogCycles = 100_000

// coreActivityFullLoad is the per-node injection rate (flits/cycle) that
// maps to 100% processing-core activity in the tile power model.
const coreActivityFullLoad = 0.1

// Network is the assembled fabric: routers, NIs, fault/thermal/power
// models and the per-epoch control loop.
type Network struct {
	cfg  config.Config
	topo topology.Topology

	routers []*Router
	nis     []*NI

	faults *fault.Model
	ftab   *fault.Table
	grid   *thermal.Grid
	meter  *power.Meter
	stats  *stats.Collector

	controller Controller
	ctrlKind   ControllerKind
	hasECC     bool
	wrapVCs    bool // dateline VC classes active (wraparound fabric)
	modes      []Mode

	cycle   int64
	dataVCs int

	// consultOwed marks the cycle-0 controller consult New defers (settle).
	consultOwed bool

	packetSeq    uint64
	dataInFlight int
	ctrlInFlight int

	coreFlits    []float64 // flits injected per node this thermal window
	lastProgress int64
	lastDelivery int64

	// Activity sets: Step's per-cycle phases iterate these instead of
	// every router/NI. wireActive covers phase 1 (arrivals, ACKs,
	// credits, VC releases), niActive phase 2 (injection), pipeActive
	// phases 3-4 (RC/VA/SA). dense forces the original full scans — the
	// referee path for the active-set equivalence tests.
	wireActive activeSet
	niActive   activeSet
	pipeActive activeSet
	dense      bool

	// fpool recycles retired flits (delivered, dropped, or ACKed out of a
	// retransmission buffer) back into the clone/packetization sites,
	// keeping the steady-state cycle loop allocation-free.
	fpool flit.Pool

	// pktPool recycles settled packets (delivered, declared, resolved
	// control) back into buildPacket, with their Payload/CRCs/Path backing
	// arrays.
	pktPool flit.PacketPool

	// Reused per-epoch/per-window scratch buffers (one element per
	// router), hoisted out of thermalStep and controlEpoch.
	scratchPowers   []float64
	epochLats       []float64
	epochCtrlPowers []float64

	// elog records flit/packet events when non-nil (nocsim -eventlog).
	elog *eventlog.Log

	// Hard-fault machinery (DESIGN.md §12). hardSched is the sorted kill
	// schedule, hardIdx the next due entry. deadRouter (nil until a
	// router dies) marks removed routers; condemned (nil until the first
	// kill, so the fault-free arrival path pays one nil check) maps packet
	// ID to the newest condemned attempt for the poison screen in eject
	// and accept. ctrlLive tracks control packets between send and NI
	// receive so a kill can cancel each exactly once.
	hardSched   []fault.HardFault
	hardIdx     int
	hardFaulted bool
	deadRouter  []bool
	condemned   map[uint64]int32

	// qr holds the learned-routing machinery for the qroute scheme
	// (qroute.go); nil for every other scheme. recov tracks per-kill
	// time-to-recover whenever a hard-fault schedule is configured,
	// regardless of scheme, so chaos head-to-heads can compare recovery
	// across routing policies.
	qr               *qrouteState
	recov            *stats.RecoveryLog
	ctrlLive         map[uint64]*flit.Packet
	unreachablePairs int

	// Always-on packet account feeding the conservation ledger. Unlike
	// the stats counters these are not gated on measurement: the ledger
	// must close over the whole run, warm-up included.
	totalInjected  int64
	totalDelivered int64
	totalDeclared  int64

	// Invariant layer (Config.Checks / RLNOC_CHECKS).
	checks bool
}

// neutralLatency is the per-hop latency fed to a controller for an epoch
// in which no packet finished through the router (roughly the zero-load
// per-hop cost). A constant keeps idle-epoch rewards driven purely by the
// router's own power draw; any history-based fallback would let long calm
// or stormy stretches reward whatever action happens to be active,
// decoupling credit from causation.
const neutralLatency = 6

// New assembles a network. controller decides per-router modes each epoch,
// and the initial ones when the network is first used (settle); kind
// selects the per-flit controller energy overhead; hasECC states whether
// the scheme's routers contain ECC hardware at all (false for the plain
// CRC baseline, which also forces Mode 0 leakage accounting).
func New(cfg config.Config, controller Controller, kind ControllerKind, hasECC bool) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if controller == nil {
		return nil, fmt.Errorf("network: nil controller")
	}
	topo, err := topology.FromConfig(cfg)
	if err != nil {
		return nil, err
	}
	n := topo.Nodes()
	faults, err := fault.New(cfg.Fault, cfg.VoltageV, topo.LinkSlots(), cfg.Seed*31+1)
	if err != nil {
		return nil, err
	}
	grid, err := thermal.NewGrid(topo, cfg.Thermal)
	if err != nil {
		return nil, err
	}
	net := &Network{
		cfg:        cfg,
		topo:       topo,
		routers:    make([]*Router, n),
		nis:        make([]*NI, n),
		faults:     faults,
		ftab:       fault.NewTable(faults, topo.LinkSlots()),
		grid:       grid,
		meter:      power.NewMeter(power.DefaultParams().Scaled(cfg.VoltageV), n),
		stats:      stats.New(),
		controller: controller,
		wrapVCs:    topo.Wraparound(),
		ctrlKind:   kind,
		hasECC:     hasECC,
		modes:      make([]Mode, n),
		dataVCs:    cfg.VCsPerPort / 2,
		coreFlits:  make([]float64, n),

		scratchPowers:   make([]float64, n),
		epochLats:       make([]float64, n),
		epochCtrlPowers: make([]float64, n),

		wireActive: newActiveSet(n),
		niActive:   newActiveSet(n),
		pipeActive: newActiveSet(n),
	}
	// Everything starts active; the first cycles prune whatever is quiet.
	net.wireActive.addAll(n)
	net.niActive.addAll(n)
	net.pipeActive.addAll(n)
	if net.dataVCs < 1 {
		net.dataVCs = 1
	}
	// Structure-of-arrays hot state (DESIGN.md §14): routers, NIs, input
	// VCs, flit buffers and output ports (each holding its downstream VC
	// state inline) all live in contiguous network-wide arenas in
	// router-ID order. The per-router structs remain the API — they are
	// views into the arenas — but the ascending-ID phase walks touch
	// sequential memory instead of chasing per-router heap islands.
	// Size fresh packets' route records for this fabric: the longest
	// minimal route is Width+Height-2 hops, plus slack for reroute
	// detours, so Path never regrows mid-flight even on a 64x64 mesh.
	net.pktPool.PathHint = cfg.Width + cfg.Height + 8
	vcs := cfg.VCsPerPort
	ports := int(topology.NumPorts)
	routerArr := make([]Router, n)
	niArr := make([]NI, n)
	vcArr := make([]inputVC, n*ports*vcs)
	bufArr := make([]*flit.Flit, n*ports*vcs*cfg.VCDepth)
	portArr := make([]outputPort, n*ports)
	lvbArr := make([]bool, n*vcs)
	for id := 0; id < n; id++ {
		r := &routerArr[id]
		base := id * ports * vcs
		initRouter(r, id, vcs, cfg.VCDepth,
			vcArr[base:base+ports*vcs:base+ports*vcs],
			bufArr[base*cfg.VCDepth:(base+ports*vcs)*cfg.VCDepth:(base+ports*vcs)*cfg.VCDepth])
		net.routers[id] = r
		ni := &niArr[id]
		initNI(ni, id, net, lvbArr[id*vcs:(id+1)*vcs:(id+1)*vcs])
		net.nis[id] = ni
	}
	// Wire output ports from the topology's edge list: every port starts
	// unwired (Local ejects to the router's own NI), then each Link claims
	// its (Src, Dir) slot.
	for id := 0; id < n; id++ {
		r := net.routers[id]
		for dir := topology.Direction(0); dir < topology.NumPorts; dir++ {
			p := &portArr[id*ports+int(dir)]
			*p = outputPort{dir: dir, owner: int32(id), downstream: -1, resendIdx: -1, wireScale: 1,
				linkID: -1}
			if dir == topology.Local {
				p.downstream = id // ejection to own NI
			}
			r.outputs[dir] = p
		}
	}
	for _, l := range topo.Links() {
		p := net.routers[l.Src].outputs[l.Dir]
		p.downstream = l.Dst
		p.inPort = l.Dir.Opposite()
		p.wireScale = int64(l.Length)
		p.linkID = int32(topo.LinkIndex(l.Src, l.Dir))
		p.linkKey = detrand.Prefix(cfg.Seed, detrand.DomainLink, uint64(p.linkID))
		net.routers[l.Dst].up[p.inPort] = p
		p.vcs = uint8(vcs)
		for v := range vcs {
			p.credits[v] = uint8(cfg.VCDepth)
		}
	}
	net.ctrlLive = make(map[uint64]*flit.Packet)
	if cfg.QRoute.Enabled {
		net.qr = newQRouteState(topo)
		net.fillSurvivingDist()
	}
	if cfg.HardFaults != "" {
		sched, err := fault.HardSchedule(cfg.HardFaults, topo)
		if err != nil {
			return nil, err
		}
		net.hardSched = sched
		net.recov = stats.NewRecoveryLog()
	}
	if net.checks, err = invariant.Parse(config.ResolveString(config.EnvChecks, cfg.Checks, "")); err != nil {
		return nil, err
	}
	net.consultOwed = true
	return net, nil
}

// settle runs the cycle-0 controller consult New owes, once. It runs
// before anything reads what the consult writes — the first Step, Modes,
// Controller or encoding Snap — so a fresh network behaves as if New had
// consulted. A decoding Snap overwrites every mode, port, error
// probability and controller field the consult would set, so it cancels
// the debt instead: a restore never asks the agents (nor draws their RNG
// streams) for decisions it is about to discard.
func (n *Network) settle() {
	if n.consultOwed {
		n.consult()
	}
}

// consult asks the controller for every router's initial mode. Static
// schemes get their fixed mode immediately; learning controllers start
// from their policy's answer to the idle state, which for a
// zero-initialized Q-table is Mode 0 — the paper's initialization.
func (n *Network) consult() {
	n.consultOwed = false
	idle := Observation{Features: rl.Features{TemperatureC: thermal.InitialC}}
	for id := range n.routers {
		n.applyMode(id, n.controller.Decide(id, idle))
	}
	n.refreshErrorProbs()
}

// markWire records that router id has (or may soon have) wire-phase work:
// in-flight flits, pending ACKs or credit returns. Dead routers stay out
// of every active set forever (the deadRouter nil check keeps the
// fault-free path branch-free in practice: nil until a router dies).
func (n *Network) markWire(id int) {
	if n.deadRouter != nil && n.deadRouter[id] {
		return
	}
	n.wireActive.add(id)
}

// markPipe records that router id has (or may soon have) pipeline work:
// an occupied input VC, a pending retransmission or a mode switch.
func (n *Network) markPipe(id int) {
	if n.deadRouter != nil && n.deadRouter[id] {
		return
	}
	n.pipeActive.add(id)
}

// markNI records that NI id has injection work queued.
func (n *Network) markNI(id int) {
	if n.deadRouter != nil && n.deadRouter[id] {
		return
	}
	n.niActive.add(id)
}

// flagWire records that output port p of router r holds (or may soon hold)
// wire-phase work: the port joins r's wirePorts summary and r the wire
// set.
func (n *Network) flagWire(r *Router, p *outputPort) {
	r.wirePorts |= 1 << uint(p.dir)
	n.markWire(r.id)
}

// returnCredit puts one credit for downstream VC vc on the return wire of
// upstream output port up (a Router.up entry; nil for an unwired edge). A
// hard-failed channel has nobody listening upstream.
func (n *Network) returnCredit(up *outputPort, vc int) {
	if up == nil || up.dead {
		return
	}
	up.credRet = append(up.credRet, wireCredit{vc: vc, deliver: n.cycle + 1})
	n.flagWire(n.routers[up.owner], up)
}

// SetDenseScan toggles the original dense O(routers x ports x VCs) phase
// scans. The dense path is kept as the referee for the active-set
// implementation: both must produce bit-identical results at a fixed seed
// (TestActiveSetMatchesDenseScan). Marking stays on while dense, so
// switching back to active-set stepping is safe at any cycle boundary;
// the sets are conservatively refilled here anyway in case a caller
// toggles mid-run after constructing state by other means.
func (n *Network) SetDenseScan(dense bool) {
	n.dense = dense
	for _, r := range n.routers {
		r.fill = [2]uint64{0, r.fillMask(n.cycle)}
	}
	if !dense {
		routers := n.topo.Nodes()
		n.wireActive.addAll(routers)
		n.niActive.addAll(routers)
		n.pipeActive.addAll(routers)
	}
}

// Stats exposes the collector.
func (n *Network) Stats() *stats.Collector { return n.stats }

// Meter exposes the energy meter.
func (n *Network) Meter() *power.Meter { return n.meter }

// Thermal exposes the thermal grid.
func (n *Network) Thermal() *thermal.Grid { return n.grid }

// Topology exposes the fabric.
func (n *Network) Topology() topology.Topology { return n.topo }

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// Modes returns the live per-router mode slice (read-only by convention).
func (n *Network) Modes() []Mode {
	n.settle()
	return n.modes
}

// Controller returns the controller the network consults, once it has
// answered the cycle-0 consult. It is the way to reach the controller
// after New: a phase hook that froze it or changed its exploration
// before that consult would change the decisions the consult draws.
func (n *Network) Controller() Controller {
	n.settle()
	return n.controller
}

// DataInFlight returns outstanding data packets.
func (n *Network) DataInFlight() int { return n.dataInFlight }

// Drained reports whether no traffic is outstanding anywhere.
func (n *Network) Drained() bool {
	if n.dataInFlight > 0 || n.ctrlInFlight > 0 {
		return false
	}
	return true
}

// Quiescent and FastForwardTo are kept only for benchmark/replica.go,
// which still calls them; the cycle loop steps every cycle (DESIGN.md
// §16). Quiescent always reports false, so the replica steps every cycle
// too. Both go when those replica lines do.
func (n *Network) Quiescent() bool { return false }

// FastForwardTo skips nothing: it returns the current cycle.
func (n *Network) FastForwardTo(target int64) int64 { return n.cycle }

// Close does nothing: Step is sequential and holds no goroutines
// (DESIGN.md §11). It is kept only for the frozen benchmark module, which
// calls it (benchmark/kernels.go:67, benchmark/replica.go:147,238).
func (n *Network) Close() {}

// LastDeliveryCycle returns the cycle of the most recent data delivery.
func (n *Network) LastDeliveryCycle() int64 { return n.lastDelivery }

// SourceOutstanding returns how many data packets created at src are not
// yet delivered (queued, in flight, or awaiting retransmission). The
// simulation driver uses it to model cores stalling on outstanding
// transactions.
func (n *Network) SourceOutstanding(src int) int { return len(n.nis[src].replay) }

// vcRange returns the VC index range [lo,hi) for a traffic class.
func (n *Network) vcRange(control bool) (int, int) {
	if control {
		return n.dataVCs, n.cfg.VCsPerPort
	}
	return 0, n.dataVCs
}

// NewDataPacket creates, registers and enqueues a data packet at src.
func (n *Network) NewDataPacket(src, dst, flits int, createdAt int64) (*flit.Packet, error) {
	if src == dst {
		return nil, fmt.Errorf("network: self-send at node %d", src)
	}
	if src < 0 || src >= n.topo.Nodes() || dst < 0 || dst >= n.topo.Nodes() {
		return nil, fmt.Errorf("network: endpoints (%d,%d) outside fabric", src, dst)
	}
	if flits < 1 {
		return nil, fmt.Errorf("network: packet needs at least 1 flit")
	}
	if n.hardFaulted {
		// Degraded fabric: refuse traffic that can never deliver instead
		// of letting it wedge a queue. A nil, nil return tells the caller
		// the packet was declined, not that the simulation failed.
		switch {
		case n.isDeadRouter(src) || n.isDeadRouter(dst):
			n.stats.Drop(stats.DropDeadRouter)
			n.recordDrop(src, 0, stats.DropDeadRouter)
			return nil, nil
		case !topology.Reachable(n.topo, src, dst):
			n.stats.Drop(stats.DropUnreachable)
			n.recordDrop(src, 0, stats.DropUnreachable)
			return nil, nil
		}
	}
	p := n.buildPacket(flit.Data, src, dst, flits, createdAt, 0)
	ni := n.nis[src]
	ni.replay[p.ID] = p
	ni.EnqueueData(p)
	n.dataInFlight++
	n.totalInjected++
	n.coreFlits[src] += float64(flits)
	n.stats.Measuref(func(c *statsCollector) { c.PacketsInjected++ })
	n.elog.Record(eventlog.Event{Cycle: createdAt, Kind: eventlog.KInject, Router: src, Packet: p.ID})
	return p, nil
}

// buildPacket draws a packet from the pool and fills in its identity,
// payload and per-flit CRCs. The payload words come from the stream keyed
// by (seed, packet ID): CRC-16 and SECDED are linear, so whether an error
// is detected, corrected or missed depends on the error pattern alone and
// no word value reaches a result (coding.FuzzDetectionIgnoresPayload).
// A restore needs no payload cursor: every live packet carries its words.
func (n *Network) buildPacket(kind flit.Kind, src, dst, nflits int, createdAt int64, ref uint64) *flit.Packet {
	n.packetSeq++
	p := n.pktPool.Get(nflits)
	p.ID = n.packetSeq
	p.Kind = kind
	p.Src = src
	p.Dst = dst
	p.RefID = ref
	p.CreatedAt = createdAt
	p.FirstInjectedAt = -1
	rng := detrand.New(n.cfg.Seed, detrand.DomainPayload, p.ID, 0)
	for i := range p.Payload {
		p.Payload[i] = rng.Uint64()
	}
	for i := 0; i < nflits; i++ {
		p.CRCs[i] = coding.CRC16Words(p.Payload[i*flit.WordsPerFlit : (i+1)*flit.WordsPerFlit])
	}
	return p
}

// sendE2ENack creates the end-to-end retransmission request from the
// failing destination back to the packet's source.
func (n *Network) sendE2ENack(from int, pkt *flit.Packet, cycle int64) {
	ctrl := n.buildPacket(flit.NackE2E, from, pkt.Src, 1, cycle, pkt.ID)
	n.nis[from].enqueueCtrl(ctrl)
	n.ctrlInFlight++
	n.ctrlLive[ctrl.ID] = ctrl
}

// deliverData finalizes a successfully received data packet.
func (n *Network) deliverData(pkt *flit.Packet, cycle int64) {
	latency := cycle - pkt.CreatedAt
	n.stats.PacketDelivered(latency, pkt.NumFlits())
	// Attribute the per-hop latency to every router on the packet's
	// recorded path — the paper's per-router reward input, normalized by
	// path length: raw end-to-end latency varies ~6x with distance on an
	// 8x8 mesh, which would swamp the per-hop action effects the reward
	// must expose.
	hops := len(pkt.Path) - 1
	if hops < 1 {
		hops = n.topo.Hops(pkt.Src, pkt.Dst)
	}
	perHop := float64(latency) / float64(hops+1)
	for _, id := range pkt.Path {
		r := n.routers[id]
		r.winLatSum += perHop
		r.winLatCount++
	}
	// The receiving core also works on arriving data (memory-controller
	// and consumer tiles heat up with traffic, not just producers).
	n.coreFlits[pkt.Dst] += float64(pkt.NumFlits())
	delete(n.nis[pkt.Src].replay, pkt.ID)
	n.dataInFlight--
	n.totalDelivered++
	n.lastDelivery = cycle
	n.lastProgress = cycle
	n.recov.RecordDelivery(cycle)
	n.elog.Record(eventlog.Event{Cycle: cycle, Kind: eventlog.KDeliver, Router: pkt.Dst,
		Packet: pkt.ID, Aux: latency})
	// Settled: recycle the packet and its backing arrays. Any remaining
	// wire copies are ARQ ghosts the sequence screens drop by value.
	n.pktPool.Put(pkt)
}

// applyMode points every link output port of router id at mode m and
// applies the switch where the channel is clean. A still-pending switch
// must be retried by the SA stage each cycle until the channel drains,
// so the port joins saAttn and the router the pipe set. When the port
// switched (or kept its mode) the SA visit would be a no-op; not marking
// then keeps an idle fabric's active sets empty across control epochs,
// so the idle Step visits nothing.
func (n *Network) applyMode(id int, m Mode) {
	if !n.hasECC {
		m = Mode0 // CRC-baseline routers have no ECC hardware to enable
	}
	n.modes[id] = m
	r := n.routers[id]
	for dir := topology.North; dir < topology.NumPorts; dir++ {
		p := r.outputs[dir]
		if !p.hasDownstream() {
			continue
		}
		p.targetMode = m
		p.trySwitchMode()
		if p.switchPending() {
			r.saAttn |= 1 << uint(p.dir)
			n.markPipe(id)
		}
	}
}

// eccFraction returns the share of router id's ECC codecs currently
// powered.
func (n *Network) eccFraction(id int) float64 {
	if !n.hasECC {
		return 0
	}
	on, total := 0, 0
	r := n.routers[id]
	for dir := topology.North; dir < topology.NumPorts; dir++ {
		p := r.outputs[dir]
		if !p.hasDownstream() {
			continue
		}
		total++
		if p.mode.ECCOn() {
			on++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(on) / float64(total)
}

// refreshErrorProbs re-evaluates every connected port's per-flit error
// probability from its tile's temperature, its link's utilization over
// the thermal window and whether it runs relaxed (Mode 3). It runs at the
// three points the inputs can move: the cycle-0 consult, the thermal
// solve and the control epoch. The memo table recomputes the Pow/Erf
// kernel only when a link's (temperature, utilization) pair changed, so
// idle windows and a converged grid cost a lookup per link.
//
// At the default periods (1,000-cycle epochs, 250-cycle thermal windows)
// every control epoch falls on a thermal boundary, after thermalStep has
// zeroed winSent, so the epoch's refresh models every link as idle for
// the window that follows: one window in four runs at utilization 0.
// That is a model bug, kept until the fix's moved digests can be
// re-pinned (ROADMAP item 4).
func (n *Network) refreshErrorProbs() {
	period := float64(n.cfg.Thermal.UpdatePeriod)
	for id, r := range n.routers {
		temp := n.grid.Temperature(id)
		for dir := topology.North; dir < topology.NumPorts; dir++ {
			p := r.outputs[dir]
			if !p.hasDownstream() {
				continue
			}
			util := min(float64(p.winSent)/period, 1)
			p.errProb = n.ftab.ErrorProbability(int(p.linkID), temp, util, p.mode == Mode3)
		}
	}
}

// Step advances the network one cycle: due hard faults, the wire phase,
// NI injection, then RC/VA and SA/ST (one visit per active router; the
// dense referee runs them as two passes), and the periodic thermal and
// control work. It returns an error only on a detected deadlock (no
// movement for watchdogCycles while traffic is outstanding), which
// indicates a simulator bug, never expected behavior.
func (n *Network) Step() error {
	n.settle()
	n.cycle++
	cycle := n.cycle

	// 0. Hard faults due this cycle fire before any phase, so both
	// stepping paths see identical post-fault state.
	if n.hardIdx < len(n.hardSched) && n.hardSched[n.hardIdx].Cycle <= cycle {
		n.applyHardFaults()
	}

	if n.dense {
		// Referee path: the original dense scans, every router and NI
		// every cycle.

		// 1. Arrivals, ACK/NACK wires and credit returns.
		for _, r := range n.routers {
			n.stepWiresDense(r)
		}

		// 2. NI injection.
		for _, ni := range n.nis {
			ni.inject(cycle)
		}

		// 3. Route computation and VC allocation.
		for _, r := range n.routers {
			n.routeAndAllocateDense(r)
		}

		// 4. Switch allocation, switch traversal and link transmission
		// (including pending go-back-N retransmissions, which have
		// priority).
		for _, r := range n.routers {
			n.switchAllocateDense(r)
		}
	} else {
		// Activity-proportional path: identical phase bodies over the
		// active sets only. Set iteration is in ascending ID order — the
		// dense scan order — and a member is dropped only once its phase
		// handler ran and left it quiet, so RNG draws, meter charges and
		// arbitration decisions match the dense path bit for bit.

		// 1. Arrivals, ACK/NACK wires and credit returns (with the VC
		// releases they complete).
		n.wireActive.forEach(func(id int) {
			r := n.routers[id]
			n.stepWires(r)
			if r.wiresQuiet() {
				n.wireActive.remove(id)
			}
		})

		// 2. NI injection.
		n.niActive.forEach(func(id int) {
			ni := n.nis[id]
			ni.inject(cycle)
			if ni.quiet() {
				n.niActive.remove(id)
			}
		})

		// 3-4. Route computation, VC allocation, then switch allocation,
		// switch traversal and link transmission, in one visit per router.
		// The dense path runs every router's RC/VA before any SA; this
		// order is equivalent because SA at router i writes only i's own
		// VCs and ports, the upstream credRet queues, NI i, the pools and
		// commutative counters, and RC/VA at any other router reads none
		// of these (DESIGN.md §9).
		n.pipeActive.forEach(func(id int) {
			r := n.routers[id]
			n.routeAndAllocate(r)
			n.switchAllocate(r)
			if r.pipeQuiet() {
				n.pipeActive.remove(id)
			}
		})
	}

	// 5. Periodic work: thermal solve and control epoch.
	if cycle%int64(n.cfg.Thermal.UpdatePeriod) == 0 {
		n.thermalStep()
	}
	if cycle%int64(n.cfg.RL.StepCycles) == 0 {
		n.controlEpoch()
	}

	// 5b. Invariant checks (observation-only; disabled costs one bool).
	if n.checks {
		if err := n.runChecks(cycle); err != nil {
			return err
		}
	}

	// 6. Watchdog.
	if !n.Drained() && cycle-n.lastProgress > watchdogCycles {
		return fmt.Errorf("network: deadlock suspected at cycle %d (%d data, %d ctrl in flight)",
			cycle, n.dataInFlight, n.ctrlInFlight)
	}
	return nil
}

// stepWires runs the wire phase for one router over the ports its
// wirePorts summary names, in ascending port order — the dense order — and
// clears the bit of each port it leaves with all three queues empty. A
// port outside the summary holds no queue entry and no newly possible VC
// release, so the dense visit to it would have been a no-op.
func (n *Network) stepWires(r *Router) {
	for m := r.wirePorts; m != 0; m &= m - 1 {
		dir := bits.TrailingZeros8(m)
		if !n.stepWirePort(r, r.outputs[dir]) {
			r.wirePorts &^= 1 << uint(dir)
		}
	}
}

// stepWiresDense is the original scan over every port — the referee
// implementation for stepWires, which reads no summary.
func (n *Network) stepWiresDense(r *Router) {
	for _, p := range r.outputs {
		n.stepWirePort(r, p)
	}
}

// stepWirePort runs the wire phase on one port: arrivals, ACK/NACK
// processing and credit returns, the last two releasing the downstream VCs
// they complete. It reports whether the port still holds a queue entry.
func (n *Network) stepWirePort(r *Router, p *outputPort) bool {
	if len(p.inflight) > 0 {
		n.processArrivals(r, p)
	}
	if len(p.acks) > 0 {
		n.processAcks(r, p)
	}
	if len(p.credRet) > 0 {
		n.processCredits(p)
	}
	return p.wireQueued()
}

// processArrivals handles flits whose link traversal completes this cycle.
// pushWire keeps a link's arrivals strictly increasing (and an ejection
// port takes one flit per cycle), so the due entries are a prefix: handle
// it, then close the gap with one copy.
func (n *Network) processArrivals(r *Router, p *outputPort) {
	due := 0
	for ; due < len(p.inflight) && p.inflight[due].arrive <= n.cycle; due++ {
		wf := &p.inflight[due]
		if p.dir == topology.Local {
			n.eject(r.id, wf.f)
			continue
		}
		n.receiveOnLink(r, p, wf)
	}
	if due > 0 {
		p.inflight = p.inflight[:copy(p.inflight, p.inflight[due:])]
	}
}

// receiveOnLink runs the downstream decoder and ARQ acceptance logic for
// one flit arriving over port p of router up: the sequence screen, the
// CRC snoop or the SECDED decode (never both: a copy either has its ECC
// link on or not, so each energy charge happens at most once), the ACK or
// NACK, and the push into the downstream router's input VC. wf points into
// p.inflight, which nothing here appends to.
func (n *Network) receiveOnLink(up *Router, p *outputPort, wf *wireFlit) {
	cycle := n.cycle
	down := p.downstream

	// Sequence screening (the downstream decoder's go-back-N window).
	if wf.seq != p.expectSeq {
		// Duplicates (already accepted) and younger flits racing a
		// retransmission are discarded; go-back-N resends the younger
		// ones in order. Every wire flit is singly-referenced (transmit
		// and retransmit put clones on the wire), so a dropped one
		// retires to the pool. The discard is still accounted: every
		// flit leaving the simulation passes a counted drop seam, and a
		// Mode 2 copy whose original got through counts apart from the
		// sequence breaks.
		reason := stats.DropStaleSeq
		if wf.isDup && wf.seq < p.expectSeq {
			reason = stats.DropDuplicate
		}
		n.stats.Drop(reason)
		n.fpool.Put(wf.f)
		return
	}

	accept := true
	if !wf.eccValid && n.ctrlKind != ControllerNone && wf.f.Kind == flit.Data {
		// Adaptive-scheme routers snoop the per-flit CRC on ECC-bypassed
		// links (detection only — recovery still happens end-to-end).
		// A mismatch raises an advisory NACK on the existing ack wires:
		// it feeds the upstream router's NACK-rate feature and the
		// reliability term of its reward, restoring the error visibility
		// that disabling the ECC decoders would otherwise destroy.
		n.meter.CRCCheck(down)
		// A flit never touched by fault injection provably matches its
		// source CRC; skip recomputing it (the check energy is charged
		// either way).
		if !wf.f.Tainted && wf.f.Dirty && coding.CRC16Words(wf.f.Payload[:]) != wf.f.CRC {
			// First detection: blame the link that actually corrupted it;
			// the taint bit stops later hops from re-blaming innocents.
			wf.f.Tainted = true
			up.winResidual++
			n.routers[down].winNACKsOut++
		}
	}
	if wf.eccValid {
		// The decode energy is charged unconditionally, as in hardware.
		// The SECDED word loop only matters if this traversal corrupted
		// the copy: the check bits cover the payload exactly as it left
		// the encoder, so a clean copy decodes to "OK" on every word.
		n.meter.ECCDecode(down)
		if wf.corrupted && wf.f.Kind == flit.Data {
			corrected := false
			for w := 0; w < flit.WordsPerFlit; w++ {
				word, res := coding.DecodeSECDED(wf.f.Payload[w], wf.f.ECCCheck[w])
				switch res {
				case coding.DecodeCorrected:
					wf.f.Payload[w] = word
					corrected = true
				case coding.DecodeDetected:
					accept = false
				}
			}
			if corrected && accept {
				n.stats.Measuref(func(c *statsCollector) { c.ECCCorrections++ })
			}
		}
	}

	if !accept {
		n.stats.Measuref(func(c *statsCollector) { c.ECCDetections++ })
		n.fpool.Put(wf.f)
		if wf.dupFollows {
			// Mode 2: the pre-retransmitted copy (same sequence number)
			// arrives next cycle; defer the NACK decision to it.
			return
		}
		// NACK: request retransmission of this flit (and implicitly all
		// younger ones, go-back-N).
		p.acks = append(p.acks, wireAck{seq: wf.seq, nack: true, deliver: cycle + 1})
		n.routers[down].winNACKsOut++
		n.elog.Record(eventlog.Event{Cycle: cycle, Kind: eventlog.KNACK, Router: down,
			Packet: wf.f.PacketID, Aux: int64(wf.f.Seq)})
		return
	}

	p.expectSeq = wf.seq + 1
	if wf.eccValid {
		// Only a copy sent with ECC on has a retransmission entry to pop.
		// A flit sent in Mode 0 has none, and no older entry waits below
		// it either (a switch into Mode 0 waits for the buffer to drain),
		// so its cumulative ACK would pop nothing (checkAcks).
		p.acks = append(p.acks, wireAck{seq: wf.seq, nack: false, deliver: cycle + 1})
	}
	n.accept(n.routers[down], p.inPort, wf.f)
}

// eject hands a flit that crossed router down's Local port to its NI.
func (n *Network) eject(down int, f *flit.Flit) {
	if n.poisoned(f) {
		// Straggler of a hard-fault-condemned attempt arriving at the NI:
		// its packet was already declared or re-queued; the copy is
		// discarded (finite cleanup work, so it counts as progress).
		n.dropFlit(f, n.routers[down], stats.DropKilledLink)
		n.lastProgress = n.cycle
		return
	}
	n.nis[down].receive(f, n.cycle)
	n.lastProgress = n.cycle
}

// accept pushes a flit the link ARQ accepted into input port inPort of
// router dr.
func (n *Network) accept(dr *Router, inPort topology.Direction, f *flit.Flit) {
	cycle := n.cycle
	if n.poisoned(f) {
		// The upstream ARQ accept already ran (sequence advanced, ACK
		// queued) — only the buffer entry is suppressed, so go-back-N
		// never stalls on a silently-missing flit. The buffer slot the
		// flit would have taken goes back upstream as a normal credit.
		n.returnCredit(dr.up[inPort], f.VC)
		n.dropFlit(f, dr, stats.DropKilledLink)
		n.lastProgress = cycle
		return
	}
	vcBuf := dr.vc(inPort, f.VC)
	if vcBuf.full(dr) {
		panic(fmt.Sprintf("network: credit protocol violated: router %d port %v vc %d overflow",
			dr.id, inPort, f.VC))
	}
	if n.qr != nil && f.Type.IsHead() && f.Kind == flit.Data {
		// The hop completed: feed the realized cost back to the upstream
		// router's agent, then restart the hop clock for the next leg.
		// Runs in ascending (router, port) order.
		n.qrouteFeedback(dr.id, inPort, f.HopStart, int(f.Dst))
	}
	f.HopStart = cycle
	vcBuf.push(dr, f)
	n.markPipe(dr.id)
	n.meter.BufferWrite(dr.id)
	dr.winFlitsIn++
	n.lastProgress = cycle
	n.elog.Record(eventlog.Event{Cycle: cycle, Kind: eventlog.KAccept, Router: dr.id,
		Packet: f.PacketID, Aux: int64(f.Seq)})
}

// processAcks consumes ACK/NACK wire messages at the upstream port.
func (n *Network) processAcks(r *Router, p *outputPort) {
	keep := p.acks[:0]
	for _, a := range p.acks {
		if a.deliver > n.cycle {
			keep = append(keep, a)
			continue
		}
		if a.nack {
			r.winNACKsIn++
			// Roll back to the NACKed entry.
			for i, e := range p.unacked {
				if e.seq == a.seq {
					if p.resendIdx == -1 || i < p.resendIdx {
						p.resendIdx = i
					}
					break
				}
			}
			// The SA stage services pending retransmissions; wake it.
			r.saAttn |= 1 << uint(p.dir)
			n.markPipe(r.id)
			continue
		}
		// Cumulative ACK: drop acknowledged entries from the front. The
		// queue compacts in place (rather than re-slicing forward) so the
		// backing array is reused forever, and the retired clean copies go
		// back to the flit pool.
		popped := 0
		for popped < len(p.unacked) && p.unacked[popped].seq <= a.seq {
			n.fpool.Put(p.unacked[popped].f)
			popped++
		}
		if popped > 0 {
			m := copy(p.unacked, p.unacked[popped:])
			for i := m; i < len(p.unacked); i++ {
				p.unacked[i] = txEntry{}
			}
			p.unacked = p.unacked[:m]
			if m == 0 {
				n.releaseVCs(p) // the buffer just drained
			}
		}
		if p.resendIdx >= 0 {
			p.resendIdx -= popped
			if p.resendIdx < 0 {
				p.resendIdx = -1
			}
		}
	}
	p.acks = keep
}

// processCredits applies returned credits. The credit that brings a
// pending VC's count home frees it if the retransmission buffer is empty.
func (n *Network) processCredits(p *outputPort) {
	keep := p.credRet[:0]
	for _, c := range p.credRet {
		if c.deliver > n.cycle {
			keep = append(keep, c)
			continue
		}
		p.credits[c.vc]++
		if int(p.credits[c.vc]) > n.cfg.VCDepth {
			panic(fmt.Sprintf("network: credit overflow on vc %d", c.vc))
		}
		p.freeIfDrained(c.vc, n.cfg.VCDepth)
	}
	p.credRet = keep
}

// releaseVCs frees every pending downstream VC of p whose packet has fully
// drained, in ascending VC order. It runs only where the retransmission
// buffer empties (processAcks, killPort), so the scan needs no guard;
// processCredits and purgeVC test the one VC they touch.
func (n *Network) releaseVCs(p *outputPort) {
	for m := p.vcPendingFree; m != 0; m &= m - 1 {
		p.freeIfDrained(bits.TrailingZeros16(m), n.cfg.VCDepth)
	}
}

// routeCompute runs the RC stage body for one input VC holding an
// unrouted head flit at its front.
func (n *Network) routeCompute(r *Router, vc *inputVC, front *flit.Flit) {
	pkt := front.Packet
	vc.qWait = 0
	// Under qroute a data head takes a learned hop over the permitted
	// (live, strictly-productive) ports. Every other head, and a data
	// head whose mask is empty, takes the table route (under qroute, on
	// the escape VC class). Control packets always take the table route:
	// the retransmission protocol depends on their paths.
	var out topology.Direction
	learned := false
	if n.qr != nil && pkt.Kind == flit.Data && pkt.Dst != r.id {
		out, learned = n.qrouteChoose(r, pkt.Dst)
	}
	if !learned {
		out = n.topo.Route(r.id, pkt.Dst)
	}
	vc.qAdaptive = learned
	if out == topology.Unreachable {
		// No surviving path (hard faults). The sweep condemns and purges
		// such residents; leaving the VC unrouted here is a backstop so a
		// head can never be granted toward a sentinel port.
		vc.outPort = uint8(topology.Local)
		return
	}
	vc.outPort = uint8(out)
	vc.routed = true
	vc.pkt = pkt
	r.routeMask[vc.outPort] |= vc.bit()
	// Record the head's path for latency attribution (exact even
	// for learned hops and reroute detours).
	if k := len(pkt.Path); k == 0 || pkt.Path[k-1] != r.id {
		pkt.Path = append(pkt.Path, r.id)
	}
	if out == topology.Local {
		vc.outVC = 0 // ejection needs no VC arbitration
	} else {
		r.vaWait |= vc.bit()
	}
}

// vaTryGrant runs the VA stage body for candidate slot idx competing for
// output port out; it reports whether a grant was issued.
func (n *Network) vaTryGrant(r *Router, op *outputPort, out topology.Direction, idx int) bool {
	vc := &r.vcs[idx]
	front := vc.front(r)
	if front == nil || !vc.routed || vc.outVC != -1 || vc.out() != out {
		return false
	}
	lo, hi := n.vcRange(front.Kind != flit.Data)
	if n.qr != nil && front.Kind == flit.Data && out != topology.Local {
		// Escape/adaptive split (qroute only): learned routes allocate
		// exclusively from the upper half of the data VCs; deterministic
		// table routes keep the lower (escape) half, which remains
		// deadlock-free on its own. See DESIGN.md §13.
		mid := lo + (hi-lo)/2
		if vc.qAdaptive {
			lo = mid
		} else {
			hi = mid
		}
	}
	if n.wrapVCs {
		// Dateline rule (wraparound fabrics only): each VC class splits
		// into wrap classes 0 (lower half) and 1 (upper half), and the
		// topology dictates which half this hop may allocate from. See
		// Fabric.WrapVCClass for the deadlock-freedom argument.
		mid := lo + (hi-lo)/2
		if n.topo.WrapVCClass(r.id, int(front.Dst), out) == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	grant := op.freeVC(lo, hi)
	if grant < 0 {
		return false
	}
	vc.outVC = int8(grant)
	r.vaWait &^= vc.bit()
	op.vcBusy |= 1 << uint(grant)
	n.meter.Arbitration(r.id)
	r.vaRR[out] = idx + 1
	return true
}

// routeAndAllocate performs the RC and VA stages for head flits at the
// front of their VCs, visiting only the occupied VCs that can act, via
// the router's occupancy and request masks (DESIGN.md §18). Bit order
// equals the dense (port, vc) scan order, the round-robin scans rotate
// over the same slot numbering, and a slot the masks leave out is one the
// dense scan would have passed over without effect, so every decision
// matches routeAndAllocateDense exactly.
func (n *Network) routeAndAllocate(r *Router) {
	if r.occMask == 0 {
		return
	}
	// RC: compute output port for unrouted heads. Routed slots matter only
	// to qroute, which ages the ones still waiting for an output VC.
	var routed uint64
	for _, m := range r.routeMask {
		routed |= m
	}
	rc := r.occMask &^ routed
	if n.qr != nil {
		rc |= r.occMask & r.vaWait
	}
	for m := rc; m != 0; {
		slot := bits.TrailingZeros64(m)
		m &^= 1 << uint(slot)
		vc := &r.vcs[slot]
		front := vc.front(r)
		if front == nil || !front.Type.IsHead() {
			continue
		}
		if vc.routed {
			if n.qr != nil {
				n.qrouteEscalate(r, vc)
			}
			continue
		}
		n.routeCompute(r, vc, front)
	}
	// VA: one grant per output port per cycle, round-robin. The two-pass
	// rotated mask walk visits exactly the occupied slots the dense scan
	// (start+k)%total would have visited, in the same order.
	total := len(r.vcs)
	for out := topology.North; out < topology.NumPorts; out++ {
		req := r.occMask & r.routeMask[out] & r.vaWait
		if req == 0 {
			continue
		}
		op := r.outputs[out]
		if !op.hasDownstream() {
			continue
		}
		start := r.vaRR[out] // one past the last grant's slot: at most total
		if start >= total {
			start -= total
		}
		lowMask := uint64(1)<<uint(start) - 1
		for m := req &^ lowMask; m != 0; { // slots start..total-1
			idx := bits.TrailingZeros64(m)
			m &^= 1 << uint(idx)
			if n.vaTryGrant(r, op, out, idx) {
				goto nextOut
			}
		}
		for m := req & lowMask; m != 0; { // wrapped slots 0..start-1
			idx := bits.TrailingZeros64(m)
			m &^= 1 << uint(idx)
			if n.vaTryGrant(r, op, out, idx) {
				break
			}
		}
	nextOut:
	}
}

// routeAndAllocateDense is the original full scan over all ports x VCs —
// the referee implementation for routeAndAllocate.
func (n *Network) routeAndAllocateDense(r *Router) {
	// RC: compute output port for unrouted heads.
	for i := range r.vcs {
		vc := &r.vcs[i]
		front := vc.front(r)
		if front == nil || !front.Type.IsHead() {
			continue
		}
		if vc.routed {
			if n.qr != nil {
				n.qrouteEscalate(r, vc)
			}
			continue
		}
		n.routeCompute(r, vc, front)
	}
	// VA: one grant per output port per cycle, round-robin.
	total := len(r.vcs)
	for out := topology.North; out < topology.NumPorts; out++ {
		op := r.outputs[out]
		if !op.hasDownstream() {
			continue
		}
		start := r.vaRR[out]
		for k := 0; k < total; k++ {
			if n.vaTryGrant(r, op, out, (start+k)%total) {
				break
			}
		}
	}
}

// saPortReady runs the per-output-port preamble of the SA stage:
// retransmission service and pending mode switches. It reports whether
// the port may grant a new flit this cycle.
func (n *Network) saPortReady(r *Router, op *outputPort) bool {
	if op.dir != topology.Local && !op.hasDownstream() {
		return false
	}
	if op.linkBusyUntil > n.cycle {
		return false
	}
	// Retransmissions first: they own the channel until done.
	if op.resendIdx >= 0 {
		n.retransmit(r, op)
		return false
	}
	// A pending mode switch pauses new grants until the ARQ state
	// drains (a few cycles), then takes effect.
	if op.dir != topology.Local && op.switchPending() {
		op.trySwitchMode()
		if op.switchPending() {
			return false
		}
	}
	return true
}

// saTryGrant runs the SA stage body for candidate slot idx competing for
// output port out; it reports whether the flit was granted and sent. The
// front's RC/VA fill is the caller's test: switchAllocate's walk leaves
// filling slots out, switchAllocateDense asks filling.
func (n *Network) saTryGrant(r *Router, op *outputPort, out topology.Direction, idx int) bool {
	if r.inputUsed&(1<<uint(idx)) != 0 {
		return false
	}
	vc := &r.vcs[idx]
	if vc.empty() || !vc.routed || vc.outVC < 0 || vc.out() != out {
		return false
	}
	if out != topology.Local && op.credits[vc.outVC] == 0 {
		return false
	}
	port := r.portOf(vc.slot)
	r.inputUsed |= (uint64(1)<<uint(r.nvc) - 1) << uint(int(port)*r.nvc)
	r.saRR[out] = idx + 1
	n.grantAndSend(r, port, vc, op)
	return true
}

// switchAllocate performs SA and ST: it first services pending go-back-N
// retransmissions, then grants at most one flit per output port and one
// per input port. Like routeAndAllocate, it walks only the slots that can
// act — occupied, past the RC/VA fill, routed to this output, holding an
// output VC, on an input port not yet granted this cycle — in dense
// round-robin order, and it reads the port itself only when such a slot
// exists or the saAttn summary says a resend or mode switch is waiting
// there (DESIGN.md §20): with neither, saPortReady has no effect and
// nothing could be granted. A router whose occupied slots are all filling
// or waiting for VA, with no saAttn bit, is done after one mask test.
func (n *Network) switchAllocate(r *Router) {
	cand := r.occMask &^ r.vaWait &^ (r.fill[0] | r.fill[1])
	if cand == 0 && r.saAttn == 0 {
		r.shiftFill()
		return
	}
	r.inputUsed = 0
	total := len(r.vcs)
	for out := topology.Direction(0); out < topology.NumPorts; out++ {
		req := cand & r.routeMask[out] &^ r.inputUsed
		attn := r.saAttn & (1 << uint(out))
		if req == 0 && attn == 0 {
			continue
		}
		op := r.outputs[out]
		ready := n.saPortReady(r, op)
		if attn != 0 && !op.saPending() {
			r.saAttn &^= attn
		}
		if !ready || req == 0 {
			continue
		}
		start := r.saRR[out] // one past the last grant's slot: at most total
		if start >= total {
			start -= total
		}
		lowMask := uint64(1)<<uint(start) - 1
		for m := req &^ lowMask; m != 0; { // slots start..total-1
			idx := bits.TrailingZeros64(m)
			m &^= 1 << uint(idx)
			if n.saTryGrant(r, op, out, idx) {
				goto nextOut
			}
		}
		for m := req & lowMask; m != 0; { // wrapped slots 0..start-1
			idx := bits.TrailingZeros64(m)
			m &^= 1 << uint(idx)
			if n.saTryGrant(r, op, out, idx) {
				break
			}
		}
	nextOut:
	}
	r.shiftFill()
}

// switchAllocateDense is the original full scan over all ports x VCs —
// the referee implementation for switchAllocate, which tests each front's
// fill from its HopStart instead of the fill register. It still shifts the
// register, so the register stays exact under either stepping path.
func (n *Network) switchAllocateDense(r *Router) {
	r.inputUsed = 0
	total := len(r.vcs)
	for out := topology.Direction(0); out < topology.NumPorts; out++ {
		op := r.outputs[out]
		if !n.saPortReady(r, op) {
			continue
		}
		start := r.saRR[out]
		for k := 0; k < total; k++ {
			idx := (start + k) % total
			if !n.filling(r, idx) && n.saTryGrant(r, op, out, idx) {
				break
			}
		}
	}
	r.shiftFill()
}

// filling reports whether slot idx's front flit is still in the RC/VA
// stages: it entered its buffer less than pipelineFill cycles ago.
func (n *Network) filling(r *Router, idx int) bool {
	front := r.vcs[idx].front(r)
	return front != nil && front.HopStart+pipelineFill > n.cycle
}

// grantAndSend pops the winning flit, traverses the switch and transmits
// it on the output channel.
func (n *Network) grantAndSend(r *Router, inPort topology.Direction, vc *inputVC, op *outputPort) {
	f := vc.pop(r)
	if next := vc.front(r); next != nil && next.HopStart == n.cycle {
		r.fill[0] |= vc.bit() // the exposed front was accepted this cycle
	}
	outVC := int(vc.outVC)
	n.meter.BufferRead(r.id)
	n.meter.Arbitration(r.id)
	n.meter.Crossbar(r.id)
	switch n.ctrlKind {
	case ControllerRL:
		n.meter.RLCompute(r.id)
	case ControllerDT:
		n.meter.DTCompute(r.id)
	}
	n.lastProgress = n.cycle

	// Return the freed buffer slot upstream.
	if inPort != topology.Local {
		n.returnCredit(r.up[inPort], f.VC)
	} else if f.Type.IsTail() {
		n.nis[r.id].releaseLocalVC(f.VC)
	}

	if f.Type.IsTail() {
		// The packet has left this VC; clear route state.
		if op.vcs > 0 {
			// Released by releaseVCs once the packet has fully drained.
			op.vcPendingFree |= 1 << uint(outVC)
		}
		vc.unroute(r)
	}

	if op.dir == topology.Local {
		// Ejection: one cycle to the NI, no faults, no ARQ.
		op.inflight = append(op.inflight, wireFlit{f: f, arrive: n.cycle + 1})
		op.linkBusyUntil = n.cycle + 1
		n.flagWire(r, op)
		return
	}

	f.VC = outVC
	n.transmit(r, op, f)
}

// transmit sends a flit on a link under the port's current mode, applying
// ECC encoding, fault injection, ARQ bookkeeping and Mode 2 duplication.
func (n *Network) transmit(r *Router, op *outputPort, f *flit.Flit) {
	mode := op.mode
	seq := op.nextSeq
	op.nextSeq++
	if op.credits[f.VC] == 0 {
		panic("network: credit underflow")
	}
	op.credits[f.VC]--

	eccOn := mode.ECCOn()
	if eccOn {
		// The SECDED check bits are materialized lazily: only if fault
		// injection actually corrupts a wire copy does corrupt() encode
		// them (over the pre-corruption payload, exactly what an eager
		// encoder would have produced). A clean traversal never reads
		// them, so the encode compute is skipped while the encoder
		// energy is charged as before.
		n.meter.ECCEncode(r.id)
		// The retransmission buffer keeps f itself as the clean copy (it
		// retires to the pool on cumulative ACK); the wire gets a pooled
		// clone below, which fault injection may corrupt.
		op.unacked = append(op.unacked, txEntry{f: f, seq: seq})
		n.meter.RetxBuffer(r.id)
	}

	arrive := n.cycle + 1 + mode.ExtraLatency()
	op.linkBusyUntil = n.cycle + mode.LinkOccupancy()

	wire := f
	if eccOn {
		wire = n.fpool.Clone(f) // the unacked entry keeps the pristine flit
	}
	hit := n.corrupt(r, op, wire, eccOn)
	n.pushWire(r, op, wireFlit{f: wire, arrive: arrive, seq: seq, eccValid: eccOn,
		dupFollows: mode == Mode2, corrupted: hit})
	n.meter.Link(r.id, op.wireScale)
	op.winSent++
	r.winFlitsOut++
	n.elog.Record(eventlog.Event{Cycle: n.cycle, Kind: eventlog.KLinkTx, Router: r.id,
		Packet: f.PacketID, Aux: int64(f.Seq)})

	if mode == Mode2 {
		dup := n.fpool.Clone(op.unacked[len(op.unacked)-1].f)
		hit := n.corrupt(r, op, dup, true)
		n.pushWire(r, op, wireFlit{f: dup, arrive: arrive + 1, seq: seq, eccValid: true,
			isDup: true, corrupted: hit})
		n.meter.Link(r.id, op.wireScale)
		n.stats.Measuref(func(c *statsCollector) { c.PreRetransmissions++ })
	}
}

// retransmit re-sends the oldest NACKed entry on the channel.
func (n *Network) retransmit(r *Router, op *outputPort) {
	if op.resendIdx >= len(op.unacked) {
		op.resendIdx = -1
		return
	}
	e := op.unacked[op.resendIdx]
	op.resendIdx++
	if op.resendIdx >= len(op.unacked) {
		op.resendIdx = -1
	}
	wire := n.fpool.Clone(e.f)
	hit := n.corrupt(r, op, wire, true)
	// Retransmissions go out singly (no Mode 2 duplicate) with the ECC
	// stage enabled — only ECC-protected flits can be NACKed.
	arrive := n.cycle + 2 // link + ECC stage
	n.pushWire(r, op, wireFlit{f: wire, arrive: arrive, seq: e.seq, eccValid: true, corrupted: hit})
	op.linkBusyUntil = n.cycle + 1
	n.meter.Link(r.id, op.wireScale)
	n.stats.Measuref(func(c *statsCollector) { c.LinkRetransmissions++ })
	n.lastProgress = n.cycle
	n.elog.Record(eventlog.Event{Cycle: n.cycle, Kind: eventlog.KRetx, Router: r.id,
		Packet: e.f.PacketID, Aux: int64(e.f.Seq)})
}

// pushWire appends an in-flight flit, enforcing monotone arrival order so
// mode switches can never reorder a link.
func (n *Network) pushWire(r *Router, op *outputPort, wf wireFlit) {
	if k := len(op.inflight); k > 0 && wf.arrive <= op.inflight[k-1].arrive {
		wf.arrive = op.inflight[k-1].arrive + 1
	}
	op.inflight = append(op.inflight, wf)
	n.flagWire(r, op)
}

// corrupt samples the link's timing-error process and flips payload bits,
// reporting whether the flit was hit. Control packets ride error-hardened
// signaling and are never corrupted (the paper's ACK wires are likewise
// assumed error-free).
//
// Draws come from a counter-based stream keyed on (seed, link, cycle) —
// the (seed, link) prefix absorbed once at wiring (outputPort.linkKey) —
// rekeyed lazily on the port's first draw each cycle. A link makes at
// most one transmission decision per cycle — either a new flit (plus its
// Mode 2 duplicate) or one go-back-N retransmission, never both — so all
// of a cycle's draws on a link advance this one stream in a fixed order,
// whatever order the routers are visited in. The
// draw still happens for every Data flit even at errProb zero, keeping
// the original/duplicate positions within the stream fixed.
//
// eccPending asks corrupt to materialize the flit's SECDED check bits
// (deferred by transmit) over the pre-corruption payload before flipping,
// preserving what an eager encoder would have stored.
func (n *Network) corrupt(r *Router, op *outputPort, f *flit.Flit, eccPending bool) bool {
	if f.Kind != flit.Data {
		return false
	}
	if op.rngCycle != n.cycle {
		op.rngCycle = n.cycle
		op.rng = op.linkKey.At(uint64(n.cycle))
	}
	nbits := n.faults.SampleErrorBits(&op.rng, op.errProb)
	if nbits == 0 {
		return false
	}
	if eccPending {
		for w := 0; w < flit.WordsPerFlit; w++ {
			f.ECCCheck[w] = coding.EncodeSECDED(f.Payload[w])
		}
	}
	fault.FlipBits(&op.rng, f.Payload[:], nbits)
	f.Dirty = true
	n.stats.Measuref(func(c *statsCollector) { c.ErrorsInjected++ })
	r.winErrEvents++
	return true
}

// thermalStep feeds the window's power into the RC grid, charges leakage
// and refreshes the cached link error probabilities.
func (n *Network) thermalStep() {
	period := int64(n.cfg.Thermal.UpdatePeriod)
	periodNS := float64(period) * n.cfg.CyclePeriodNS()
	powers := n.scratchPowers // fully overwritten below
	for id := range n.routers {
		staticPJ := n.meter.AddStaticCyclesAt(id, period, n.eccFraction(id), n.cfg.CyclePeriodNS(),
			n.grid.Temperature(id))
		activity := n.coreFlits[id] / (float64(period) * coreActivityFullLoad)
		powers[id] = n.meter.TilePowerW(id, staticPJ, period, n.cfg.CyclePeriodNS(), activity)
		n.coreFlits[id] = 0
	}
	if err := n.grid.Step(powers, periodNS*1e-9); err != nil {
		panic(err) // sizes are internally consistent; a failure is a bug
	}
	n.meter.WindowReset()
	n.refreshErrorProbs()
	for _, r := range n.routers {
		for dir := topology.North; dir < topology.NumPorts; dir++ {
			r.outputs[dir].winSent = 0
		}
	}
}

// controlEpoch gathers per-router observations, asks the controller for
// new modes and resets the observation windows.
func (n *Network) controlEpoch() {
	epoch := float64(n.cfg.RL.StepCycles)
	epochNS := epoch * n.cfg.CyclePeriodNS()
	// First pass: per-router latency and controllable power, plus the
	// network-wide mean raw reward used for normalization. The two scratch
	// buffers are reused across epochs and fully overwritten here.
	//
	// The mean runs over every router, dead ones included: a dead router
	// reads neutralLatency and power clamped to 1e-4 W, so it adds
	// 1/(6·1e-4)/16 ≈ 104 to a 4×4 mesh's NetMeanReward and roughly halves
	// every live router's normalized reward after a router kill. That is a
	// model bug, kept until the fix's moved digests can be re-pinned
	// (ROADMAP item 13).
	lats := n.epochLats
	ctrlPowers := n.epochCtrlPowers
	leakBaseW := n.meter.Params().RouterLeakageMW / 1000
	var rawSum float64
	for id, r := range n.routers {
		energyNow := n.meter.DynamicPJ(id) + n.meter.StaticPJ(id)
		powerW := (energyNow - r.epochEnergyPJ) / epochNS / 1000
		r.epochEnergyPJ = energyNow
		ctrlPowers[id] = powerW - leakBaseW
		if ctrlPowers[id] < 0 {
			ctrlPowers[id] = 0
		}
		lats[id] = neutralLatency
		if r.winLatCount > 0 {
			lats[id] = r.winLatSum / float64(r.winLatCount)
		}
		rawSum += rl.Reward(lats[id], ctrlPowers[id])
	}
	netMean := rawSum / float64(len(n.routers))

	for id, r := range n.routers {
		if n.isDeadRouter(id) {
			continue // nothing to observe or control on dead hardware
		}
		sent, nacksIn, residual := r.epochSends()
		obs := Observation{
			Features: rl.Features{
				BufferUtilization: float64(r.occupiedVCs()) / float64(r.totalVCs()),
				InputLinkUtil:     float64(r.winFlitsIn) / (epoch * 4),
				OutputLinkUtil:    float64(sent) / (epoch * 4),
				InputNACKRate:     rate(nacksIn, sent),
				OutputNACKRate:    rate(r.winNACKsOut, r.winFlitsIn),
				TemperatureC:      n.grid.Temperature(id),
			},
			WindowLatency:     lats[id],
			ControlPowerW:     ctrlPowers[id],
			NetMeanReward:     netMean,
			MeasuredErrorRate: rate(r.winErrEvents, sent),
			ResidualErrorRate: rate(residual, sent),
		}
		n.applyMode(id, n.controller.Decide(id, obs))
	}
	// The first pass read every router's latency window, dead ones too.
	for _, r := range n.routers {
		r.resetEpoch()
	}
	n.refreshErrorProbs()
}

// rate is events per opportunity, 0 (not NaN) when there was none.
func rate(events, of int64) float64 {
	if of == 0 {
		return 0
	}
	return float64(events) / float64(of)
}

// SetEventLog attaches an event recorder (nil detaches). Recording costs
// one nil check per event when detached.
func (n *Network) SetEventLog(l *eventlog.Log) { n.elog = l }

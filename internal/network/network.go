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
	disc   rl.Discretizer

	controller Controller
	ctrlKind   ControllerKind
	hasECC     bool
	adaptive   bool // west-first congestion-aware routing
	wrapVCs    bool // dateline VC classes active (wraparound fabric)
	modes      []Mode

	cycle   int64
	dataVCs int

	// probsDirty marks the per-port error probabilities stale since the
	// last boundary capture; materializeErrorProbs clears it.
	probsDirty bool

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
	epochPowers     []float64
	epochCtrlPowers []float64

	// elog records flit/packet events when non-nil (nocsim -eventlog).
	elog *eventlog.Log

	// Hard-fault machinery (DESIGN.md §12). hardSched is the sorted kill
	// schedule, hardIdx the next due entry. deadRouter (nil until a
	// router dies) marks removed routers; condemned (nil until the first
	// kill, so the fault-free accept path pays one nil check) maps packet
	// ID to the newest condemned attempt for the poison screen in
	// applyWireOp. ctrlLive tracks control packets between send and NI
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

	// Invariant layer (Config.Checks / RLNOC_CHECKS). ering is the
	// fixed-size diagnostic event ring attached when checks are on.
	checks invariant.Config
	thresh invariant.Thresholds
	ering  *eventlog.Ring

	epochEnergyPJ []float64 // per-router energy snapshot at epoch start
	epochLatSum   float64
	epochLatCount int64
	meanLatEWMA   float64
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
	adaptive := cfg.Routing == config.RoutingWestFirst
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
		cfg:           cfg,
		topo:          topo,
		routers:       make([]*Router, n),
		nis:           make([]*NI, n),
		faults:        faults,
		ftab:          fault.NewTable(faults, topo.LinkSlots()),
		grid:          grid,
		meter:         power.NewMeter(power.DefaultParams().Scaled(cfg.VoltageV), n),
		stats:         stats.New(n),
		disc:          rl.DefaultDiscretizer(),
		controller:    controller,
		adaptive:      adaptive,
		wrapVCs:       topo.Wraparound(),
		ctrlKind:      kind,
		hasECC:        hasECC,
		modes:         make([]Mode, n),
		dataVCs:       cfg.VCsPerPort / 2,
		coreFlits:     make([]float64, n),
		epochEnergyPJ: make([]float64, n),
		meanLatEWMA:   50,

		scratchPowers:   make([]float64, n),
		epochLats:       make([]float64, n),
		epochPowers:     make([]float64, n),
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
	// VCs, flit buffers, output ports and per-link credit tables all live
	// in contiguous network-wide arenas in router-ID order. The
	// per-router structs remain the API — they are views into the arenas
	// — but the ascending-ID phase walks touch sequential memory instead
	// of chasing per-router heap islands.
	// Size fresh packets' route records for this fabric: the longest
	// minimal route is Width+Height-2 hops, plus slack for adaptive
	// detours, so Path never regrows mid-flight even on a 64x64 mesh.
	net.pktPool.PathHint = cfg.Width + cfg.Height + 8
	vcs := cfg.VCsPerPort
	ports := int(topology.NumPorts)
	routerArr := make([]Router, n)
	niArr := make([]NI, n)
	vcArr := make([]inputVC, n*ports*vcs)
	bufArr := make([]bufFlit, n*ports*vcs*cfg.VCDepth)
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
		initNI(ni, id, net, cfg.Seed*31+100+int64(id), lvbArr[id*vcs:(id+1)*vcs:(id+1)*vcs])
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
	links := topo.Links()
	credArr := make([]int, len(links)*vcs)
	busyArr := make([]bool, len(links)*vcs)
	pendArr := make([]bool, len(links)*vcs)
	for li, l := range links {
		p := net.routers[l.Src].outputs[l.Dir]
		p.downstream = l.Dst
		p.inPort = l.Dir.Opposite()
		p.wireScale = l.Length
		p.linkID = int32(topo.LinkIndex(l.Src, l.Dir))
		p.linkKey = detrand.Prefix(cfg.Seed, detrand.DomainLink, uint64(p.linkID))
		net.routers[l.Dst].up[p.inPort] = p
		p.credits = credArr[li*vcs : (li+1)*vcs : (li+1)*vcs]
		for v := range p.credits {
			p.credits[v] = cfg.VCDepth
		}
		p.vcBusy = busyArr[li*vcs : (li+1)*vcs : (li+1)*vcs]
		p.vcPendingFree = pendArr[li*vcs : (li+1)*vcs : (li+1)*vcs]
	}
	net.ctrlLive = make(map[uint64]*flit.Packet)
	if cfg.QRoute.Enabled {
		net.qr = newQRouteState(cfg, topo)
		net.fillSurvivingDist()
	}
	if cfg.HardFaults != "" {
		sched, err := fault.ParseHardFaults(cfg.HardFaults)
		if err != nil {
			return nil, err
		}
		if err := fault.ValidateSchedule(sched, topo); err != nil {
			return nil, err
		}
		net.hardSched = sched
		net.recov = stats.NewRecoveryLog()
	}
	checkSpec := config.ResolveString(config.EnvChecks, cfg.Checks, "")
	checks, err := invariant.Parse(checkSpec)
	if err != nil {
		return nil, err
	}
	if checks.Enabled() {
		net.checks = checks
		net.thresh = invariant.DefaultThresholds(n)
		net.ering = eventlog.NewRing(128)
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
	idle := Observation{Features: rl.Features{TemperatureC: n.cfg.Thermal.InitialC}}
	for id := range n.routers {
		n.applyMode(id, n.controller.Decide(id, idle))
	}
	n.captureErrorInputs()
	n.materializeErrorProbs()
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
	rng := n.nis[src].rng
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
	n.stats.Measuref(func(c *statsCollector) { c.ControlInjected++ })
}

// deliverData finalizes a successfully received data packet.
func (n *Network) deliverData(pkt *flit.Packet, cycle int64) {
	latency := cycle - pkt.CreatedAt
	netLatency := cycle - pkt.FirstInjectedAt
	n.stats.PacketDelivered(latency, netLatency, pkt.NumFlits())
	// Attribute the per-hop latency to every router on the packet's
	// recorded path — the paper's per-router reward input, normalized by
	// path length.
	hops := len(pkt.Path) - 1
	if hops < 1 {
		hops = n.topo.Hops(pkt.Src, pkt.Dst)
	}
	perHop := float64(latency) / float64(hops+1)
	for _, id := range pkt.Path {
		n.stats.RouterPacketLatency(id, perHop)
	}
	n.epochLatSum += float64(latency)
	n.epochLatCount++
	// The receiving core also works on arriving data (memory-controller
	// and consumer tiles heat up with traffic, not just producers).
	n.coreFlits[pkt.Dst] += float64(pkt.NumFlits())
	delete(n.nis[pkt.Src].replay, pkt.ID)
	n.dataInFlight--
	n.totalDelivered++
	n.lastDelivery = cycle
	n.lastProgress = cycle
	if n.recov != nil {
		n.recov.RecordDelivery(cycle)
	}
	n.elog.Record(eventlog.Event{Cycle: cycle, Kind: eventlog.KDeliver, Router: pkt.Dst,
		Packet: pkt.ID, Aux: latency})
	// Settled: recycle the packet and its backing arrays. Any remaining
	// wire copies are ARQ ghosts the sequence screens drop by value.
	n.pktPool.Put(pkt)
}

// applyMode sets a router's operation mode on all its link output ports.
func (n *Network) applyMode(id int, m Mode) {
	if !n.hasECC {
		m = Mode0 // CRC-baseline routers have no ECC hardware to enable
	}
	n.modes[id] = m
	r := n.routers[id]
	for dir := topology.North; dir < topology.NumPorts; dir++ {
		if p := r.outputs[dir]; p.hasDownstream() {
			n.requestMode(r, p, m)
		}
	}
}

// requestMode points port p of router r at mode m and applies the switch
// if the channel is clean. A still-pending switch must be retried by the
// SA stage each cycle until the channel drains, so the port joins saAttn
// and the router the pipe set. When the port switched (or kept its mode)
// the SA visit would be a no-op; not marking then keeps an idle fabric's
// active sets empty across control epochs, which is what lets the lazy
// error-probability materialization stay deferred and the idle Step
// visit nothing.
func (n *Network) requestMode(r *Router, p *outputPort, m Mode) {
	p.targetMode = m
	p.trySwitchMode()
	if p.switchPending() {
		r.saAttn |= 1 << uint(p.dir)
		n.markPipe(r.id)
	}
}

// applyPortModes sets per-channel operation modes (PortController path).
// The router-level mode report becomes the strongest mode among its
// channels.
func (n *Network) applyPortModes(id int, pm [4]Mode) {
	r := n.routers[id]
	report := Mode0
	for dir := topology.North; dir < topology.NumPorts; dir++ {
		p := r.outputs[dir]
		if !p.hasDownstream() {
			continue
		}
		m := pm[dir-topology.North]
		if !n.hasECC {
			m = Mode0
		}
		if m >= NumModes {
			m = Mode0
		}
		n.requestMode(r, p, m)
		if m > report {
			report = m
		}
	}
	n.modes[id] = report
}

// eccFraction returns the share of router id's ECC codecs currently
// powered (per-port gating).
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

// captureErrorInputs pins, for every connected port, the inputs the
// error-probability model would be evaluated with right now — window
// utilization and the port's relaxation mode; temperature comes from the
// grid, which only moves at these same boundaries — and marks the cached
// probabilities stale. The expensive Pow/Erf kernel runs later, in
// materializeErrorProbs, and only if something can actually consume a
// probability: on a quiescent fabric whole windows come and go without a
// single flit crossing a link, and those windows' probabilities were
// never observable.
func (n *Network) captureErrorInputs() {
	period := float64(n.cfg.Thermal.UpdatePeriod)
	for _, r := range n.routers {
		for dir := topology.North; dir < topology.NumPorts; dir++ {
			p := r.outputs[dir]
			if !p.hasDownstream() {
				continue
			}
			util := float64(p.winSent) / period
			if util > 1 {
				util = 1
			}
			p.winUtil = util
			p.winRelaxed = p.mode == Mode3
			p.winCaptured = true
		}
	}
	n.probsDirty = true
}

// materializeErrorProbs evaluates the error model for every port captured
// since the last materialization. The grid has not stepped since the
// capture, and utilization and the relaxation flag were pinned by it, so
// the resulting float64s are exactly the ones an eager refresh at the
// boundary would have produced — including for ports whose link died in
// between (their capture flag is still set, and the model is a pure
// function of the pinned inputs). The memo table recomputes the Pow/Erf
// kernel only when a link's (temperature, utilization) pair actually
// changed — idle windows and a converged thermal grid hit the cache.
func (n *Network) materializeErrorProbs() {
	n.probsDirty = false
	for id, r := range n.routers {
		temp := n.grid.Temperature(id)
		for dir := topology.North; dir < topology.NumPorts; dir++ {
			p := r.outputs[dir]
			if !p.winCaptured {
				continue
			}
			p.winCaptured = false
			p.errProb = n.ftab.ErrorProbability(int(p.linkID), temp, p.winUtil, p.winRelaxed)
		}
	}
}

// Step advances the network one cycle. It returns an error only on a
// detected deadlock (no movement for watchdogCycles while traffic is
// outstanding), which indicates a simulator bug, never expected behavior.
func (n *Network) Step() error {
	n.settle()
	n.cycle++
	cycle := n.cycle

	// 0. Hard faults due this cycle fire before any phase, so both
	// stepping paths see identical post-fault state.
	if n.hardIdx < len(n.hardSched) && n.hardSched[n.hardIdx].Cycle <= cycle {
		n.applyHardFaults()
	}

	// 0b. Stale error probabilities materialize only when some flit could
	// consume them this cycle: activity in any set implies possible link
	// transmissions (injections mark the NI set before Step runs, and
	// everything else NACK/credit-driven is already in a set), and the
	// dense referee scans everything.
	if n.probsDirty && (n.dense ||
		!n.wireActive.empty() || !n.niActive.empty() || !n.pipeActive.empty()) {
		n.materializeErrorProbs()
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

		// 1. Arrivals, ACK/NACK wires and credit returns.
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

		// 3. Route computation and VC allocation. Membership is shared
		// with phase 4, which runs on the same snapshot and prunes.
		n.pipeActive.forEach(func(id int) {
			n.routeAndAllocate(n.routers[id])
		})

		// 4. Switch allocation, switch traversal and link transmission.
		n.pipeActive.forEach(func(id int) {
			r := n.routers[id]
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
	if n.checks.Enabled() {
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
// processing, credit returns and VC releases. It reports whether the port
// still holds a queue entry.
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
	n.releaseVCs(p)
	return p.wireQueued()
}

// processArrivals handles flits whose link traversal completes this cycle.
// pushWire keeps a link's arrivals strictly increasing (and an ejection
// port takes one flit per cycle), so the due entries are a prefix: handle
// it, then close the gap with one copy.
func (n *Network) processArrivals(r *Router, p *outputPort) {
	due := 0
	for ; due < len(p.inflight) && p.inflight[due].arrive <= n.cycle; due++ {
		wf := p.inflight[due]
		if p.dir == topology.Local {
			n.applyWireOp(wireOp{f: wf.f, down: int32(r.id), flags: opEject})
			continue
		}
		n.receiveOnLink(r, p, wf)
	}
	if due > 0 {
		p.inflight = p.inflight[:copy(p.inflight, p.inflight[due:])]
	}
}

// receiveOnLink runs the downstream decoder and ARQ acceptance logic.
// Everything decided and mutated here touches only the upstream router's
// own state (sequence screen, decode, ack queue, per-port epoch counters)
// plus the wire flit itself; the effects on the *downstream* router —
// meter charges, NACK-out stats, the buffer push — are collapsed into a
// wireOp and applied by applyWireOp.
func (n *Network) receiveOnLink(up *Router, p *outputPort, wf wireFlit) {
	cycle := n.cycle

	// Sequence screening (the downstream decoder's go-back-N window).
	if wf.seq != p.expectSeq {
		// Duplicates (already accepted) and younger flits racing a
		// retransmission are discarded; go-back-N resends the younger
		// ones in order. Every wire flit is singly-referenced (transmit
		// and retransmit put clones on the wire), so a dropped one
		// retires to the pool. The discard is still accounted: every
		// flit leaving the simulation passes a counted drop seam.
		n.stats.Drop(stats.DropStaleSeq)
		n.fpool.Put(wf.f)
		return
	}

	var flags uint8
	accept := true
	if !wf.eccValid && n.ctrlKind != ControllerNone && wf.f.Kind == flit.Data {
		// Adaptive-scheme routers snoop the per-flit CRC on ECC-bypassed
		// links (detection only — recovery still happens end-to-end).
		// A mismatch raises an advisory NACK on the existing ack wires:
		// it feeds the upstream router's NACK-rate feature and the
		// reliability term of its reward, restoring the error visibility
		// that disabling the ECC decoders would otherwise destroy.
		flags |= opCRCCheck
		// A flit never touched by fault injection provably matches its
		// source CRC; skip recomputing it (the check energy is charged
		// either way).
		if !wf.f.Tainted && wf.f.Dirty && coding.CRC16Words(wf.f.Payload[:]) != wf.f.CRC {
			// First detection: blame the link that actually corrupted it;
			// the taint bit stops later hops from re-blaming innocents.
			wf.f.Tainted = true
			n.stats.RouterResidualCorrupt(up.id)
			n.stats.RouterNACKIn(up.id)
			flags |= opNACKOut
			p.winResidualEpoch++
		}
	}
	if wf.eccValid {
		flags |= opECCDecode
		// The SECDED word loop only matters if this traversal corrupted
		// the copy: the check bits cover the payload exactly as it left
		// the encoder, so a clean copy decodes to "OK" on every word.
		// The decode energy is charged unconditionally, as in hardware
		// (and as in the dense referee path).
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
			if flags != 0 {
				n.applyWireOp(wireOp{down: int32(p.downstream), flags: flags})
			}
			return
		}
		// NACK: request retransmission of this flit (and implicitly all
		// younger ones, go-back-N).
		p.acks = append(p.acks, wireAck{seq: wf.seq, nack: true, deliver: cycle + 1})
		n.stats.Measuref(func(c *statsCollector) { c.LinkNACKs++ })
		flags |= opNACKOut
		n.applyWireOp(wireOp{down: int32(p.downstream), flags: flags})
		n.elog.Record(eventlog.Event{Cycle: cycle, Kind: eventlog.KNACK, Router: p.downstream,
			Packet: wf.f.PacketID, Aux: int64(wf.f.Seq)})
		return
	}

	// Accepted.
	p.expectSeq = wf.seq + 1
	wf.f.ECCValid = false
	p.acks = append(p.acks, wireAck{seq: wf.seq, nack: false, deliver: cycle + 1})
	n.applyWireOp(wireOp{f: wf.f, down: int32(p.downstream), inPort: p.inPort,
		flags: flags | opAccept})
}

// wireOp is the downstream half of one link arrival (or local ejection):
// which router it lands on and which effects to apply there.
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

// applyWireOp executes the downstream-router effects of one arrival.
func (n *Network) applyWireOp(op wireOp) {
	down := int(op.down)
	cycle := n.cycle
	if op.flags&opCRCCheck != 0 {
		n.meter.CRCCheck(down)
	}
	if op.flags&opECCDecode != 0 {
		n.meter.ECCDecode(down)
	}
	if op.flags&opNACKOut != 0 {
		n.stats.RouterNACKOut(down)
	}
	switch {
	case op.flags&opEject != 0:
		if n.poisoned(op.f) {
			// Straggler of a hard-fault-condemned attempt arriving at the
			// NI: its packet was already declared or re-queued; the copy
			// is discarded (finite cleanup work, so it counts as progress).
			n.dropFlit(op.f, n.routers[down], stats.DropKilledLink)
			n.lastProgress = cycle
			return
		}
		n.nis[down].receive(op.f, cycle)
		n.lastProgress = cycle
	case op.flags&opAccept != 0:
		dr := n.routers[down]
		if n.poisoned(op.f) {
			// The upstream ARQ accept already ran (sequence advanced, ACK
			// queued) — only the buffer entry is suppressed, so go-back-N
			// never stalls on a silently-missing flit. The buffer slot the
			// flit would have taken goes back upstream as a normal credit.
			n.returnCredit(dr.up[op.inPort], op.f.VC)
			n.dropFlit(op.f, dr, stats.DropKilledLink)
			n.lastProgress = cycle
			return
		}
		vcBuf := dr.vc(op.inPort, op.f.VC)
		if vcBuf.full() {
			panic(fmt.Sprintf("network: credit protocol violated: router %d port %v vc %d overflow",
				down, op.inPort, op.f.VC))
		}
		if n.qr != nil && op.f.Type.IsHead() && op.f.Kind == flit.Data {
			// The hop completed: feed the realized cost back to the
			// upstream router's agent, then restart the hop clock for the
			// next leg. Runs in ascending (router, port) order on
			// both stepping paths.
			n.qrouteFeedback(down, op.inPort, op.f.HopStart, int(op.f.Dst))
		}
		op.f.HopStart = cycle
		vcBuf.push(op.f, cycle+pipelineFill)
		n.markPipe(down)
		n.meter.BufferWrite(down)
		n.stats.RouterFlitIn(down)
		dr.winFlitsIn++
		n.lastProgress = cycle
		n.elog.Record(eventlog.Event{Cycle: cycle, Kind: eventlog.KAccept, Router: down,
			Packet: op.f.PacketID, Aux: int64(op.f.Seq)})
	}
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
			n.stats.RouterNACKIn(r.id)
			p.winNackEpoch++
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

// processCredits applies returned credits.
func (n *Network) processCredits(p *outputPort) {
	keep := p.credRet[:0]
	for _, c := range p.credRet {
		if c.deliver > n.cycle {
			keep = append(keep, c)
			continue
		}
		p.credits[c.vc]++
		if p.credits[c.vc] > n.cfg.VCDepth {
			panic(fmt.Sprintf("network: credit overflow on vc %d", c.vc))
		}
	}
	p.credRet = keep
}

// releaseVCs frees downstream VCs whose packet has fully drained.
func (n *Network) releaseVCs(p *outputPort) {
	if p.pendingFree == 0 {
		return
	}
	for vc := range p.vcPendingFree {
		if p.vcPendingFree[vc] && p.credits[vc] == n.cfg.VCDepth && len(p.unacked) == 0 {
			p.vcPendingFree[vc] = false
			p.pendingFree--
			p.vcBusy[vc] = false
		}
	}
}

// routeCompute runs the RC stage body for one input VC holding an
// unrouted head flit at its front.
func (n *Network) routeCompute(r *Router, vc *inputVC, front *bufFlit) {
	pkt := front.f.Packet
	vc.qAdaptive = false
	vc.qWait = 0
	if n.qr != nil && pkt.Kind == flit.Data && pkt.Dst != r.id {
		// Learned route over the permitted (live, strictly-productive)
		// ports; empty mask falls back to the deterministic table route
		// on the escape VC class. Control packets always take the table
		// route — the retransmission protocol depends on their paths.
		if out, ok := n.qrouteChoose(r, pkt.Dst); ok {
			vc.outPort = out
			vc.qAdaptive = true
		} else {
			vc.outPort = n.topo.Route(r.id, pkt.Dst)
		}
	} else if n.adaptive {
		vc.outPort = n.routeAdaptive(r, pkt)
	} else {
		vc.outPort = n.topo.Route(r.id, pkt.Dst)
	}
	if vc.outPort == topology.Unreachable {
		// No surviving path (hard faults). The sweep condemns and purges
		// such residents; leaving the VC unrouted here is a backstop so a
		// head can never be granted toward a sentinel port.
		vc.outPort = topology.Local
		return
	}
	vc.routed = true
	vc.pkt = pkt
	r.routeMask[vc.outPort] |= vc.bit()
	// Record the head's path for latency attribution (exact even
	// under adaptive routing).
	if k := len(pkt.Path); k == 0 || pkt.Path[k-1] != r.id {
		pkt.Path = append(pkt.Path, r.id)
	}
	if vc.outPort == topology.Local {
		vc.outVC = 0 // ejection needs no VC arbitration
	} else {
		r.vaWait |= vc.bit()
	}
}

// vaTryGrant runs the VA stage body for candidate slot idx competing for
// output port out; it reports whether a grant was issued.
func (n *Network) vaTryGrant(r *Router, op *outputPort, out topology.Direction, idx int) bool {
	vc := &r.vcs[idx]
	front := vc.front()
	if front == nil || !vc.routed || vc.outVC != -1 || vc.outPort != out {
		return false
	}
	lo, hi := n.vcRange(front.f.Kind != flit.Data)
	if n.qr != nil && front.f.Kind == flit.Data && out != topology.Local {
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
		if n.topo.WrapVCClass(r.id, int(front.f.Dst), out) == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	grant := op.freeVC(lo, hi)
	if grant < 0 {
		return false
	}
	vc.outVC = grant
	r.vaWait &^= vc.bit()
	op.vcBusy[grant] = true
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
		front := vc.front()
		if front == nil || !front.f.Type.IsHead() {
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
		start := r.vaRR[out] % total
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
		front := vc.front()
		if front == nil || !front.f.Type.IsHead() {
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

// routeAdaptive picks among the west-first candidate directions by
// congestion: most free credits in the packet's VC class wins, with a
// bonus for an idle link; ties break deterministically.
func (n *Network) routeAdaptive(r *Router, pkt *flit.Packet) topology.Direction {
	cands := topology.WestFirstCandidates(n.topo, r.id, pkt.Dst)
	if len(cands) == 0 {
		return topology.Local
	}
	if len(cands) == 1 {
		return cands[0]
	}
	lo, hi := n.vcRange(pkt.Kind != flit.Data)
	best, bestScore := cands[0], -1
	for _, d := range cands {
		op := r.outputs[d]
		if !op.hasDownstream() {
			continue
		}
		score := 0
		for v := lo; v < hi && v < len(op.credits); v++ {
			score += op.credits[v]
			if !op.vcBusy[v] {
				score += 2 // a whole free VC beats residual credits
			}
		}
		if op.linkBusyUntil <= n.cycle {
			score += 2
		}
		if score > bestScore {
			best, bestScore = d, score
		}
	}
	return best
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
// output port out; it reports whether the flit was granted and sent.
func (n *Network) saTryGrant(r *Router, op *outputPort, out topology.Direction, idx int) bool {
	if r.inputUsed&(1<<uint(idx)) != 0 {
		return false
	}
	vc := &r.vcs[idx]
	front := vc.front()
	if front == nil || !vc.routed || vc.outVC < 0 || vc.outPort != out || front.ready > n.cycle {
		return false
	}
	if out != topology.Local && op.credits[vc.outVC] <= 0 {
		return false
	}
	port := r.portOf(idx)
	r.inputUsed |= (uint64(1)<<uint(r.nvc) - 1) << uint(int(port)*r.nvc)
	r.saRR[out] = idx + 1
	n.grantAndSend(r, port, vc, op)
	return true
}

// switchAllocate performs SA and ST: it first services pending go-back-N
// retransmissions, then grants at most one flit per output port and one
// per input port. Like routeAndAllocate, it walks only the slots that can
// act — occupied, routed to this output, holding an output VC, on an
// input port not yet granted this cycle — in dense round-robin order, and
// it reads the port itself only when such a slot exists or the saAttn
// summary says a resend or mode switch is waiting there (DESIGN.md §20):
// with neither, saPortReady has no effect and nothing could be granted.
func (n *Network) switchAllocate(r *Router) {
	r.inputUsed = 0
	total := len(r.vcs)
	for out := topology.Direction(0); out < topology.NumPorts; out++ {
		req := r.occMask & r.routeMask[out] &^ r.vaWait &^ r.inputUsed
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
		start := r.saRR[out] % total
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
}

// switchAllocateDense is the original full scan over all ports x VCs —
// the referee implementation for switchAllocate.
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
			if n.saTryGrant(r, op, out, (start+k)%total) {
				break
			}
		}
	}
}

// grantAndSend pops the winning flit, traverses the switch and transmits
// it on the output channel.
func (n *Network) grantAndSend(r *Router, inPort topology.Direction, vc *inputVC, op *outputPort) {
	f := vc.pop()
	outVC := vc.outVC
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
		if op.dir != topology.Local && op.vcBusy != nil {
			op.markPendingFree(outVC)
		}
		vc.unroute()
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
	op.credits[f.VC]--
	if op.credits[f.VC] < 0 {
		panic("network: credit underflow")
	}

	eccOn := mode.ECCOn()
	if eccOn {
		// The SECDED check bits are materialized lazily: only if fault
		// injection actually corrupts a wire copy does corrupt() encode
		// them (over the pre-corruption payload, exactly what an eager
		// encoder would have produced). A clean traversal never reads
		// them, so the encode compute is skipped while the encoder
		// energy is charged as before.
		f.ECCValid = true
		n.meter.ECCEncode(r.id)
		// The retransmission buffer keeps f itself as the clean copy (it
		// retires to the pool on cumulative ACK); the wire gets a pooled
		// clone below, which fault injection may corrupt.
		op.unacked = append(op.unacked, txEntry{f: f, seq: seq, dupFollows: mode == Mode2})
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
	n.meter.LinkScaled(r.id, op.wireScale)
	n.stats.RouterFlitOut(r.id)
	op.winSent++
	op.winSentEpoch++
	n.elog.Record(eventlog.Event{Cycle: n.cycle, Kind: eventlog.KLinkTx, Router: r.id,
		Packet: f.PacketID, Aux: int64(f.Seq)})

	if mode == Mode2 {
		dup := n.fpool.Clone(op.unacked[len(op.unacked)-1].f)
		hit := n.corrupt(r, op, dup, true)
		n.pushWire(r, op, wireFlit{f: dup, arrive: arrive + 1, seq: seq, eccValid: true,
			isDup: true, corrupted: hit})
		n.meter.LinkScaled(r.id, op.wireScale)
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
	n.pushWire(r, op, wireFlit{f: wire, arrive: arrive, seq: e.seq, eccValid: true,
		isRetx: true, corrupted: hit})
	op.linkBusyUntil = n.cycle + 1
	n.meter.LinkScaled(r.id, op.wireScale)
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
		n.meter.AddStaticCyclesAt(id, period, n.eccFraction(id), n.cfg.CyclePeriodNS(),
			n.grid.Temperature(id))
		activity := n.coreFlits[id] / (float64(period) * coreActivityFullLoad)
		powers[id] = n.meter.TilePowerW(id, period, n.cfg.CyclePeriodNS(), activity)
		n.coreFlits[id] = 0
	}
	if err := n.grid.Step(powers, periodNS*1e-9); err != nil {
		panic(err) // sizes are internally consistent; a failure is a bug
	}
	n.meter.WindowReset()
	n.captureErrorInputs()
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
	if n.epochLatCount > 0 {
		n.meanLatEWMA = 0.7*n.meanLatEWMA + 0.3*(n.epochLatSum/float64(n.epochLatCount))
	}
	// First pass: per-router latency and power, plus the network-wide
	// mean raw reward used for normalization. The three scratch buffers
	// are reused across epochs and fully overwritten here.
	lats := n.epochLats
	powers := n.epochPowers
	ctrlPowers := n.epochCtrlPowers
	leakBaseW := n.meter.Params().RouterLeakageMW / 1000
	var rawSum float64
	for id := range n.routers {
		energyNow := n.meter.DynamicPJ(id) + n.meter.StaticPJ(id)
		powers[id] = (energyNow - n.epochEnergyPJ[id]) / epochNS / 1000
		n.epochEnergyPJ[id] = energyNow
		ctrlPowers[id] = powers[id] - leakBaseW
		if ctrlPowers[id] < 0 {
			ctrlPowers[id] = 0
		}
		lats[id] = n.stats.WindowLatency(id, neutralLatency)
		lat, pw := lats[id], ctrlPowers[id]
		if lat < 1 {
			lat = 1
		}
		if pw < 1e-4 {
			pw = 1e-4
		}
		rawSum += 1 / (lat * pw)
	}
	netMean := rawSum / float64(len(n.routers))

	for id, r := range n.routers {
		if n.isDeadRouter(id) {
			continue // nothing to observe or control on dead hardware
		}
		flitsOut := n.stats.WindowFlitsOut(id)
		errRate := 0.0
		if flitsOut > 0 {
			errRate = float64(r.winErrEvents) / float64(flitsOut)
		}
		powerW := powers[id]
		winLat := lats[id]
		var ports [4]PortObservation
		for dir := topology.North; dir < topology.NumPorts; dir++ {
			p := r.outputs[dir]
			if !p.hasDownstream() {
				continue
			}
			po := PortObservation{Connected: true, Util: float64(p.winSentEpoch) / epoch}
			if p.winSentEpoch > 0 {
				po.NACKRate = float64(p.winNackEpoch) / float64(p.winSentEpoch)
				po.ResidualRate = float64(p.winResidualEpoch) / float64(p.winSentEpoch)
			}
			ports[dir-topology.North] = po
		}
		obs := Observation{
			Ports: ports,
			Features: rl.Features{
				BufferUtilization: float64(r.occupiedVCs()) / float64(r.totalVCs()),
				InputLinkUtil:     float64(n.stats.WindowFlitsIn(id)) / (epoch * 4),
				OutputLinkUtil:    float64(flitsOut) / (epoch * 4),
				InputNACKRate:     n.stats.WindowNACKRateIn(id),
				OutputNACKRate:    n.stats.WindowNACKRateOut(id),
				TemperatureC:      n.grid.Temperature(id),
			},
			WindowLatency:     winLat,
			WindowPowerW:      powerW,
			ControlPowerW:     ctrlPowers[id],
			NetMeanReward:     netMean,
			MeasuredErrorRate: errRate,
			ResidualErrorRate: n.stats.WindowResidualRate(id),
			Cycle:             n.cycle,
		}
		if pc, ok := n.controller.(PortController); ok {
			n.applyPortModes(id, pc.DecidePorts(id, obs))
		} else {
			n.applyMode(id, n.controller.Decide(id, obs))
		}
		r.winErrEvents = 0
		r.winFlitsIn = 0
		for dir := topology.North; dir < topology.NumPorts; dir++ {
			p := r.outputs[dir]
			p.winSentEpoch = 0
			p.winNackEpoch = 0
			p.winResidualEpoch = 0
		}
	}
	n.stats.WindowReset()
	n.epochLatSum = 0
	n.epochLatCount = 0
	n.captureErrorInputs()
}

// Discretizer exposes the feature discretizer (shared with controllers).
func (n *Network) Discretizer() rl.Discretizer { return n.disc }

// SetEventLog attaches an event recorder (nil detaches). Recording costs
// one nil check per event when detached.
func (n *Network) SetEventLog(l *eventlog.Log) { n.elog = l }

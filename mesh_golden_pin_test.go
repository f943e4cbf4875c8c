package rlnoc

// Bit-identity pin for the default 8x8 mesh: any behavior-preserving
// refactor of the hot path must reproduce these bytes exactly. The
// golden strings were first captured across the fabric-abstraction
// refactor (table-driven routes, edge-list wiring, canonical LinkIndex,
// wire-scaled link energy; DESIGN.md section 10) and re-captured — in a
// dedicated, clearly-labeled commit step — when the shared *rand.Rand
// was replaced by counter-based per-(link,cycle) / per-(node,cycle)
// detrand streams, which make draws independent of traversal order.
// That migration changes which bits each individual draw yields (so the
// pins had to move once) but not the distributions, which
// internal/fault/detrand_property_test.go pins separately. These bytes
// hold for active-set and dense-scan stepping alike
// (activeset_equivalence_test.go enforces that equality directly).
// Re-pinning means results moved: bump campaign.ResultsVersion in the same
// change, so no campaign directory the old build filled is read back as
// this one's.

import "testing"

// meshGolden maps scheme -> serialized Result for the pinned run.
var meshGolden = map[Scheme]string{
	CRC: `{"Scheme":"crc","Benchmark":"canneal","ExecutionCycles":3044,"Drained":true,"MeanLatency":23.750915750915752,"RetransmittedPacketEq":15,"DynamicPJ":64803.77999999994,"StaticPJ":123676.95190916865,"TotalPJ":188480.7319091686,"DynamicPowerW":0.06340878669275923,"EnergyEfficiency":13895.319555858534,"FlitsDelivered":2619,"MeanTempC":56.42619042671454,"MaxTempC":57.54689837304411,"ModeDecisions":[0,0,0,0],"ModeMeanReward":[0,0,0,0],"Summary":{"PacketsInjected":809,"PacketsDelivered":819,"FlitsDelivered":2619,"MeanLatency":23.750915750915752,"P50Latency":32,"P95Latency":64,"P99Latency":128,"MaxLatency":136,"SourceRetransmissions":15,"LinkRetransmissions":0,"PreRetransmissions":0,"ErrorsInjected":12,"ECCCorrections":0,"ECCDetections":0,"CRCFailures":14,"SilentCorruption":0}}`,
	ARQ: `{"Scheme":"arq-ecc","Benchmark":"canneal","ExecutionCycles":3057,"Drained":true,"MeanLatency":28.215422276621787,"RetransmittedPacketEq":1.75,"DynamicPJ":80092.28000000004,"StaticPJ":137341.5172115956,"TotalPJ":217433.79721159564,"DynamicPowerW":0.07787290228488093,"EnergyEfficiency":12008.252780772193,"FlitsDelivered":2611,"MeanTempC":56.42360885557742,"MaxTempC":57.60779353916082,"ModeDecisions":[0,0,0,0],"ModeMeanReward":[0,0,0,0],"Summary":{"PacketsInjected":809,"PacketsDelivered":817,"FlitsDelivered":2611,"MeanLatency":28.215422276621787,"P50Latency":32,"P95Latency":64,"P99Latency":64,"MaxLatency":74,"SourceRetransmissions":0,"LinkRetransmissions":7,"PreRetransmissions":0,"ErrorsInjected":15,"ECCCorrections":11,"ECCDetections":4,"CRCFailures":0,"SilentCorruption":0}}`,
	DT:  `{"Scheme":"dt","Benchmark":"canneal","ExecutionCycles":3044,"Drained":true,"MeanLatency":24.02322738386308,"RetransmittedPacketEq":22,"DynamicPJ":71898.31000000006,"StaticPJ":123673.81394429196,"TotalPJ":195572.12394429202,"DynamicPowerW":0.07035059686888459,"EnergyEfficiency":13371.026234520381,"FlitsDelivered":2615,"MeanTempC":56.42292132160905,"MaxTempC":57.57526881825839,"ModeDecisions":[192,0,0,0],"ModeMeanReward":[0,0,0,0],"Summary":{"PacketsInjected":809,"PacketsDelivered":818,"FlitsDelivered":2615,"MeanLatency":24.02322738386308,"P50Latency":32,"P95Latency":64,"P99Latency":128,"MaxLatency":162,"SourceRetransmissions":22,"LinkRetransmissions":0,"PreRetransmissions":0,"ErrorsInjected":21,"ECCCorrections":0,"ECCDetections":0,"CRCFailures":21,"SilentCorruption":0}}`,
	RL:  `{"Scheme":"rl","Benchmark":"canneal","ExecutionCycles":3054,"Drained":true,"MeanLatency":25.492682926829268,"RetransmittedPacketEq":12,"DynamicPJ":74633.98000000008,"StaticPJ":125379.99849134679,"TotalPJ":200013.97849134688,"DynamicPowerW":0.07267184031158723,"EnergyEfficiency":13114.083424491644,"FlitsDelivered":2623,"MeanTempC":56.425572222507284,"MaxTempC":57.54782291601153,"ModeDecisions":[125,1,1,1],"ModeMeanReward":[1.0009838075596582,0.7509441380564578,0.5637604517752575,0.7473527916066889],"Summary":{"PacketsInjected":809,"PacketsDelivered":820,"FlitsDelivered":2623,"MeanLatency":25.492682926829268,"P50Latency":32,"P95Latency":64,"P99Latency":128,"MaxLatency":99,"SourceRetransmissions":12,"LinkRetransmissions":0,"PreRetransmissions":1453,"ErrorsInjected":12,"ECCCorrections":0,"ECCDetections":0,"CRCFailures":11,"SilentCorruption":0}}`,
}

// meshGoldenConfig reproduces the exact run the goldens were captured
// from: the default 8x8 mesh with shortened phases and a fixed seed.
func meshGoldenConfig() Config {
	cfg := DefaultConfig()
	cfg.PretrainCycles = 3000
	cfg.WarmupCycles = 1000
	cfg.MaxCycles = 3000
	cfg.DrainCycles = 15000
	cfg.Seed = 20260805
	return cfg
}

// TestMeshGoldenPin replays the pinned 8x8-mesh run for every scheme and
// requires byte-identical serialized results.
func TestMeshGoldenPin(t *testing.T) {
	cfg := meshGoldenConfig()
	for _, scheme := range Schemes() {
		res, err := Run(cfg, scheme, "canneal")
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if got := serialize(t, res); got != meshGolden[scheme] {
			t.Errorf("%s: result drifted from pre-refactor golden:\n got: %s\nwant: %s",
				scheme, got, meshGolden[scheme])
		}
	}
}

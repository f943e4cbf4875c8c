package rl

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"rlnoc/internal/config"
)

func newAgent(seed int64) *Agent {
	return NewAgent(config.Default().RL, seed)
}

func TestStateIndexBijective(t *testing.T) {
	seen := make(map[int]State)
	for b := 0; b < BufBins; b++ {
		for il := 0; il < LinkBins; il++ {
			for ol := 0; ol < LinkBins; ol++ {
				for in := 0; in < NACKBins; in++ {
					for on := 0; on < NACKBins; on++ {
						for tp := 0; tp < TempBins; tp++ {
							s := State{uint8(b), uint8(il), uint8(ol), uint8(in), uint8(on), uint8(tp)}
							idx := s.Index()
							if idx < 0 || idx >= NumStates {
								t.Fatalf("index %d out of range for %+v", idx, s)
							}
							if prev, dup := seen[idx]; dup {
								t.Fatalf("states %+v and %+v collide at %d", prev, s, idx)
							}
							if back := stateOf(idx); back != s {
								t.Fatalf("stateOf(%d) = %+v, want %+v", idx, back, s)
							}
							seen[idx] = s
						}
					}
				}
			}
		}
	}
	if len(seen) != NumStates {
		t.Fatalf("enumerated %d states, want %d", len(seen), NumStates)
	}
}

func TestDiscretizerBins(t *testing.T) {
	// Bins over the simulator's operating envelope: link utilization in
	// [0, 0.15] flits/cycle, temperature in [55, 90] C.
	d := DefaultDiscretizer()
	cases := []struct {
		f    Features
		want State
	}{
		{Features{}, State{Temp: 0}},
		{Features{BufferUtilization: 0.999, InputLinkUtil: 0.149, OutputLinkUtil: 0.149,
			InputNACKRate: 0.5, OutputNACKRate: 0.5, TemperatureC: 89},
			State{Buf: 4, InLink: 4, OutLink: 4, InNACK: 3, OutNACK: 3, Temp: 4}},
		{Features{BufferUtilization: 0.5, InputLinkUtil: 0.075, OutputLinkUtil: 0.01,
			InputNACKRate: 0.005, OutputNACKRate: 0.05, TemperatureC: 70},
			State{Buf: 2, InLink: 2, OutLink: 0, InNACK: 1, OutNACK: 2, Temp: 2}},
		// Saturation above range.
		{Features{BufferUtilization: 5, InputLinkUtil: 5, OutputLinkUtil: 5,
			InputNACKRate: 1, OutputNACKRate: 1, TemperatureC: 500},
			State{Buf: 4, InLink: 4, OutLink: 4, InNACK: 3, OutNACK: 3, Temp: 4}},
		// Below range.
		{Features{BufferUtilization: -1, InputLinkUtil: -1, OutputLinkUtil: -1,
			InputNACKRate: 0, OutputNACKRate: 0, TemperatureC: -20},
			State{}},
	}
	for i, tc := range cases {
		if got := d.Discretize(tc.f); got != tc.want {
			t.Errorf("case %d: Discretize = %+v, want %+v", i, got, tc.want)
		}
	}
}

func TestDiscretizeAlwaysInRange(t *testing.T) {
	d := DefaultDiscretizer()
	prop := func(bu, il, ol, in, on, tc float64) bool {
		s := d.Discretize(Features{bu, il, ol, in, on, tc})
		return s.Buf < BufBins && s.InLink < LinkBins && s.OutLink < LinkBins &&
			s.InNACK < NACKBins && s.OutNACK < NACKBins && s.Temp < TempBins &&
			s.Index() >= 0 && s.Index() < NumStates
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLogBinDecades(t *testing.T) {
	cases := map[float64]uint8{
		0: 0, 0.0005: 0, 0.001: 1, 0.005: 1, 0.01: 2, 0.05: 2, 0.1: 3, 0.5: 3, 1: 3,
	}
	for rate, want := range cases {
		if got := logBin(rate); got != want {
			t.Errorf("logBin(%g) = %d, want %d", rate, got, want)
		}
	}
}

func TestQLearningConvergesToBestAction(t *testing.T) {
	// Single-state bandit: action 2 pays 1.0, others pay 0.1. The agent
	// must learn to pick action 2 greedily.
	a := newAgent(1)
	s := State{}
	for i := 0; i < 2000; i++ {
		act := a.Step(s, rewardFor(a.prevAction, a.hasPrev))
		_ = act
	}
	if got := a.Greedy(s); got != 2 {
		t.Fatalf("greedy action = %d, want 2 (Q=%v)", got,
			[]float64{a.Q(s, 0), a.Q(s, 1), a.Q(s, 2), a.Q(s, 3)})
	}
}

func rewardFor(prevAction int, hasPrev bool) float64 {
	if !hasPrev {
		return 0
	}
	if prevAction == 2 {
		return 1.0
	}
	return 0.1
}

func TestQLearningStateDependentPolicy(t *testing.T) {
	// Two states with different optimal actions; transitions alternate.
	a := newAgent(2)
	s0 := State{Temp: 0}
	s1 := State{Temp: 4}
	cur := s0
	var prevA int
	var prevS State
	first := true
	for i := 0; i < 6000; i++ {
		var r float64
		if !first {
			want := 0
			if prevS == s1 {
				want = 3
			}
			if prevA == want {
				r = 1
			}
		}
		prevS = cur
		prevA = a.Step(cur, r)
		first = false
		if cur == s0 {
			cur = s1
		} else {
			cur = s0
		}
	}
	if a.Greedy(s0) != 0 {
		t.Errorf("greedy(s0) = %d, want 0", a.Greedy(s0))
	}
	if a.Greedy(s1) != 3 {
		t.Errorf("greedy(s1) = %d, want 3", a.Greedy(s1))
	}
}

// updates sums the agent's table's per-state update counts.
func updates(a *Agent) int64 {
	var total int64
	a.Visits(func(_ State, n int64) { total += n })
	return total
}

// TestLearningRate pins the visit-decayed step size: 0.8 at a cell's
// first update, the paper's 0.1 at its 36th, the 0.02 floor from its
// 196th on.
func TestLearningRate(t *testing.T) {
	for _, tc := range []struct {
		n    uint32
		want float64
	}{{1, 0.8}, {2, 2.0 / 3}, {36, 0.1}, {196, 0.02}, {1000, 0.02}} {
		if got := learningRate(tc.n); math.Abs(got-tc.want) > 1e-15 {
			t.Errorf("learningRate(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestTDUpdateRule(t *testing.T) {
	// Two hand-checked applications of Eq. (2), at the rates of a cell's
	// first and second updates.
	cfg := config.Default().RL
	cfg.Gamma = 0.5
	cfg.Epsilon = 0
	a := NewAgent(cfg, 1)
	s := State{Buf: 1}
	next := State{Buf: 2}
	// Pre-load Q(next, 3) = 2.0 as the max next value.
	a.t.write(next.Index()).q[3] = 2.0
	a.t.write(s.Index()).q[1] = 1.0
	a.update(s, 1, 0.5, next)
	// alpha = 0.8: Q = 0.2*1.0 + 0.8*(0.5 + 0.5*2.0) = 0.2 + 1.2 = 1.4
	if got := a.Q(s, 1); math.Abs(got-1.4) > 1e-12 {
		t.Fatalf("first TD update produced %g, want 1.4", got)
	}
	a.update(s, 1, 0.5, next)
	// alpha = 2/3: Q = 1.4/3 + (2/3)*(0.5 + 0.5*2.0) = 7/15 + 1 = 22/15
	if got := a.Q(s, 1); math.Abs(got-22.0/15) > 1e-12 {
		t.Fatalf("second TD update produced %g, want 22/15", got)
	}
	if n := updates(a); n != 2 {
		t.Fatalf("updates = %d, want 2", n)
	}
}

func TestEpsilonZeroIsDeterministic(t *testing.T) {
	cfg := config.Default().RL
	cfg.Epsilon = 0
	a := NewAgent(cfg, 1)
	s := State{}
	a.t.write(s.Index()).q[1] = 5
	for i := 0; i < 100; i++ {
		if act := a.Step(s, 0); act != 1 {
			t.Fatalf("eps=0 chose %d, want 1", act)
		}
	}
}

func TestEpsilonOneExplores(t *testing.T) {
	cfg := config.Default().RL
	cfg.Epsilon = 1
	a := NewAgent(cfg, 1)
	s := State{}
	counts := make([]int, NumActions)
	for i := 0; i < 4000; i++ {
		counts[a.Step(s, 0)]++
	}
	for act, c := range counts {
		if c < 800 {
			t.Fatalf("action %d chosen %d/4000 times under eps=1", act, c)
		}
	}
}

func TestFreezeStopsLearningAndExploring(t *testing.T) {
	a := newAgent(3)
	s := State{}
	a.t.write(s.Index()).q[2] = 1
	a.Freeze()
	if !a.frozen {
		t.Fatal("frozen false after Freeze")
	}
	before := a.Q(s, 2)
	for i := 0; i < 500; i++ {
		if act := a.Step(s, 123); act != 2 {
			t.Fatalf("frozen agent explored (action %d)", act)
		}
	}
	if a.Q(s, 2) != before {
		t.Fatal("frozen agent learned")
	}
	if updates(a) != 0 {
		t.Fatal("frozen agent recorded updates")
	}
}

func TestGreedyTieBreaksLow(t *testing.T) {
	a := newAgent(4)
	s := State{}
	// All zeros: the cheapest mode (0) must win ties.
	if got := a.Greedy(s); got != 0 {
		t.Fatalf("tie break chose %d, want 0", got)
	}
}

// TestSharedAgentsOneTableSet pins the NewSharedAgents layout: every
// agent aliases agent 0's tables, keeps its own exploration stream (the
// seeds NewAgent would have been given), and the constructor allocates
// one table set, not n.
func TestSharedAgentsOneTableSet(t *testing.T) {
	cfg := config.Default().RL
	const n, seed = 64, 501
	agents := NewSharedAgents(cfg, n, seed)
	for i, a := range agents {
		if !a.SharesTableWith(agents[0]) {
			t.Fatalf("agent %d does not share agent 0's table", i)
		}
		solo := NewAgent(cfg, seed+int64(i)*7919)
		for d := 0; d < 8; d++ {
			if got, want := a.rng.Uint64(), solo.rng.Uint64(); got != want {
				t.Fatalf("agent %d draw %d: exploration stream differs from NewAgent's at the same seed", i, d)
			}
		}
	}
	one := testing.AllocsPerRun(3, func() { NewAgent(cfg, seed) })
	all := testing.AllocsPerRun(3, func() { NewSharedAgents(cfg, n, seed) })
	// Per extra agent: the shell, its rand.Rand and its counting source
	// (a handful of small objects) — never a table.
	if perShell := (all - one) / (n - 1); perShell > 6 {
		t.Errorf("NewSharedAgents allocates %.1f objects per extra agent; tables are being built and dropped again", perShell)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	agents = NewSharedAgents(cfg, 64, 1)
	runtime.ReadMemStats(&ms1)
	runtime.KeepAlive(agents)
	// One table is a 20 KB state index and a 256-row slab of 20 KB; the 64
	// agents add their shells (0.057 MB in all). A dense table set was
	// 0.8 MB, and one per agent 53.6 MB.
	if mb := float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20); mb > 0.1 {
		t.Errorf("NewSharedAgents(64) allocated %.3f MB, want <= 0.1", mb)
	}
}

func TestAgentsDeterministicPerSeed(t *testing.T) {
	runSeq := func(seed int64) []int {
		a := NewAgent(config.Default().RL, seed)
		var acts []int
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 200; i++ {
			s := State{Buf: uint8(rng.Intn(BufBins)), Temp: uint8(rng.Intn(TempBins))}
			acts = append(acts, a.Step(s, rng.Float64()))
		}
		return acts
	}
	a1, a2, b := runSeq(1), runSeq(1), runSeq(2)
	same, diff := true, false
	for i := range a1 {
		if a1[i] != a2[i] {
			same = false
		}
		if a1[i] != b[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed diverged")
	}
	if !diff {
		t.Error("different seeds identical (exploration stream ignored)")
	}
}

func BenchmarkQStep(b *testing.B) {
	a := newAgent(1)
	s := State{Buf: 2, InLink: 1, OutLink: 3, InNACK: 1, OutNACK: 0, Temp: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Step(s, 0.5)
	}
}

func TestRewardShape(t *testing.T) {
	// Lower latency and lower power both raise the reward.
	if Reward(50, 0.002) <= Reward(100, 0.002) {
		t.Error("reward not decreasing in latency")
	}
	if Reward(50, 0.002) <= Reward(50, 0.004) {
		t.Error("reward not decreasing in power")
	}
	// Floors keep idle epochs finite.
	if r := Reward(0, 0); r <= 0 || r > 1e4 {
		t.Errorf("idle reward %g out of range", r)
	}
}

package rl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/snap"
)

func doubleQConfig() config.RLConfig {
	cfg := config.Default().RL
	cfg.DoubleQ = true
	return cfg
}

func TestDoubleQConvergesToBestAction(t *testing.T) {
	a := NewAgent(doubleQConfig(), 1)
	s := State{}
	prev := -1
	for i := 0; i < 4000; i++ {
		r := 0.0
		if prev == 2 {
			r = 1.0
		} else if prev >= 0 {
			r = 0.1
		}
		prev = a.Step(s, r)
	}
	if got := a.Greedy(s); got != 2 {
		t.Fatalf("double-Q greedy = %d, want 2 (Q=%v)", got,
			[]float64{a.Q(s, 0), a.Q(s, 1), a.Q(s, 2), a.Q(s, 3)})
	}
}

// TestDoubleQReducesOverestimation reproduces the textbook setting: all
// actions have zero-mean noisy rewards; plain Q-learning's max operator
// drives values above zero, Double Q stays near the truth.
func TestDoubleQReducesOverestimation(t *testing.T) {
	plainCfg := config.Default().RL
	plainCfg.AlphaDecay = false
	plainCfg.Alpha = 0.2
	plainCfg.Gamma = 0.9
	doubleCfg := plainCfg
	doubleCfg.DoubleQ = true

	run := func(cfg config.RLConfig) float64 {
		a := NewAgent(cfg, 7)
		noise := rand.New(rand.NewSource(99))
		s := State{}
		for i := 0; i < 20000; i++ {
			a.Step(s, noise.NormFloat64()) // zero-mean rewards
		}
		best := a.Q(s, a.Greedy(s))
		return best
	}
	plain := run(plainCfg)
	double := run(doubleCfg)
	if plain <= 0 {
		t.Skipf("plain Q did not overestimate on this seed (%g); nothing to compare", plain)
	}
	if double >= plain {
		t.Fatalf("double-Q estimate %g not below plain %g", double, plain)
	}
}

func TestDoubleQSharedAcrossAgents(t *testing.T) {
	agents := NewSharedAgents(doubleQConfig(), 3, 5)
	s := State{Temp: 1}
	for i := 0; i < 100; i++ {
		agents[0].Step(s, 1.0)
	}
	// Table contents must be visible to the other agents.
	if agents[2].Q(s, agents[0].Greedy(s)) == 0 {
		t.Fatal("double-Q tables not shared")
	}
}

// TestDoubleQSnapshotCarriesBothTables: trained state moves between runs
// only as a snapshot, so under Double Q-learning (acting estimate
// (q+q2)/2) the stream must carry both estimators — a restored agent acts
// and learns exactly as its source does — and a single-table stream must
// not load into a Double-Q agent.
func TestDoubleQSnapshotCarriesBothTables(t *testing.T) {
	encode := func(a *Agent) []byte {
		var buf bytes.Buffer
		c := snap.NewEncoder(&buf)
		a.SnapTable(c)
		a.SnapLocal(c)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	decode := func(a *Agent, data []byte) error {
		c := snap.NewDecoder(bytes.NewReader(data))
		a.SnapTable(c)
		a.SnapLocal(c)
		c.ReplayDraws(math.MaxUint64)
		return c.Err()
	}
	in := rand.New(rand.NewSource(3))
	state := func() State {
		return State{Buf: uint8(in.Intn(BufBins)), InNACK: uint8(in.Intn(NACKBins)), Temp: uint8(in.Intn(TempBins))}
	}
	src := NewAgent(doubleQConfig(), 1)
	for i := 0; i < 20_000; i++ {
		s := state()
		src.Step(s, in.Float64()*float64(1+int(s.Temp)))
	}
	diverged := false
	for _, r := range src.t.rows {
		diverged = diverged || r.q != r.q2
	}
	if !diverged {
		t.Fatal("the two estimators never diverged: the test cannot tell one table from two")
	}

	// A restore rebuilds its skeleton from the config the stream carries,
	// so the exploration stream has the source's seed, replayed to its
	// position.
	dst := NewAgent(doubleQConfig(), 1)
	if err := decode(dst, encode(src)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2_000; i++ {
		s, r := state(), in.Float64()
		if got, want := dst.Step(s, r), src.Step(s, r); got != want {
			t.Fatalf("step %d: restored agent chose %d, source %d", i, got, want)
		}
	}
	if !bytes.Equal(encode(dst), encode(src)) {
		t.Fatal("restored agent's state diverged from its source's")
	}

	if err := decode(NewAgent(doubleQConfig(), 4), encode(newAgent(5))); err == nil {
		t.Fatal("a single-table snapshot loaded into a Double-Q agent")
	}
}

func TestDoubleQDisabledHasNilSecondTable(t *testing.T) {
	a := NewAgent(config.Default().RL, 1)
	if a.t.doubleQ {
		t.Fatal("second estimate live without DoubleQ")
	}
	b := NewAgent(doubleQConfig(), 1)
	if !b.t.doubleQ {
		t.Fatal("second estimate missing with DoubleQ")
	}
}

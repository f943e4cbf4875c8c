package rl

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"rlnoc/internal/config"
	"rlnoc/internal/snap"
)

// denseAgent is the layout Table replaced, kept as its referee: two
// NumStates x NumActions slices, allocated up front and shared by
// aliasing. Its learning rule is Agent's, written against that layout.
type denseAgent struct {
	q          []float64
	visits     []uint32
	cfg        config.RLConfig
	rng        *rand.Rand
	hasPrev    bool
	prevState  State
	prevAction int
}

func (d *denseAgent) step(s State, reward float64) int {
	base := s.Index() * NumActions
	if d.hasPrev {
		idx := d.prevState.Index()*NumActions + d.prevAction
		argmax := 0
		for act := 1; act < NumActions; act++ {
			if d.q[base+act] > d.q[base+argmax] {
				argmax = act
			}
		}
		d.visits[idx]++
		alpha := max(1/(1+float64(d.visits[idx])/4), 0.02)
		d.q[idx] = (1-alpha)*d.q[idx] + alpha*(reward+d.cfg.Gamma*d.q[base+argmax])
	}
	action := 0
	for act := 1; act < NumActions; act++ {
		if d.q[base+act] > d.q[base+action] {
			action = act
		}
	}
	if d.cfg.Epsilon > 0 && d.rng.Float64() < d.cfg.Epsilon {
		action = d.rng.Intn(NumActions)
	}
	d.prevState, d.prevAction, d.hasPrev = s, action, true
	return action
}

// visited reports whether state s has a non-zero visit count: every
// update increments one, so these are the states a table holds rows for.
func (d *denseAgent) visited(s int) bool {
	return [NumActions]uint32(d.visits[s*NumActions:]) != [NumActions]uint32{}
}

// snapTable writes the row stream from the dense layout: the format
// Table.snap must write. A row for each visited state, in ascending order.
func (d *denseAgent) snapTable(c *snap.Codec) {
	c.Section("QTAB")
	var states []int
	for s := range NumStates {
		if d.visited(s) {
			states = append(states, s)
		}
	}
	n := len(states)
	c.Len(&n)
	for _, s := range states {
		idx := uint16(s)
		c.U16(&idx)
		lo, hi := s*NumActions, (s+1)*NumActions
		c.RawF64s(d.q[lo:hi])
		c.RawU32s(d.visits[lo:hi])
	}
}

// newDenseAgents builds n dense agents with NewSharedAgents' seeds, one
// aliased table set when shared, n sets otherwise.
func newDenseAgents(cfg config.RLConfig, n int, shared bool, seed int64) []*denseAgent {
	agents := make([]*denseAgent, n)
	for i := range agents {
		d := &denseAgent{cfg: cfg, rng: rand.New(snap.NewCountingSource(seed + int64(i)*7919))}
		if shared && i > 0 {
			d.q, d.visits = agents[0].q, agents[0].visits
		} else {
			d.q, d.visits = make([]float64, NumStates*NumActions), make([]uint32, NumStates*NumActions)
		}
		agents[i] = d
	}
	return agents
}

// Switches of the referee, one bit each in the first input byte. The
// exploration rate is the default 0.2, 0 under swGreedy (no draws), 1
// under swExplore (two draws a step) and 0.5 under both.
const (
	swShared = 1 << iota
	swGreedy
	swExplore
	swNegZero
)

// checkAgainstDense drives the sparse and dense agents through the same
// Step sequence (input bytes in threes: agent, state, reward) and fails
// on the first difference in an action, a Q-value's bits or a visit count,
// then on any difference in Visits or the table streams. Each sparse
// stream must decode into a fresh table that re-encodes to the same bytes
// with a row for exactly the visited states.
func checkAgainstDense(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	sw, data := data[0], data[1:]
	cfg := config.Default().RL
	switch sw & (swGreedy | swExplore) {
	case swGreedy:
		cfg.Epsilon = 0
	case swExplore:
		cfg.Epsilon = 1
	case swGreedy | swExplore:
		cfg.Epsilon = 0.5
	}
	const n, seed = 3, 11
	shared := sw&swShared != 0
	dense := newDenseAgents(cfg, n, shared, seed)
	sparse := NewSharedAgents(cfg, n, seed)
	if !shared {
		for i := range sparse {
			sparse[i] = NewAgent(cfg, seed+int64(i)*7919)
		}
	}
	negZero := math.Copysign(0, -1)
	rewards := []float64{0, 1, -0.5, 0.25, 3, -2, 0.1, 1e-3}
	if sw&swNegZero != 0 {
		// A -0.0 in the table survives the TD update only where every term
		// is -0.0, so seed the first state's row with one as well, and a
		// visit, as an update would.
		rewards[0] = negZero
		for i := range sparse {
			if i == 0 || !shared {
				r := sparse[i].t.write(0)
				r.q[0], r.visits[0] = negZero, 1
				dense[i].q[0], dense[i].visits[0] = negZero, 1
			}
		}
	}
	// States come from a 500-state corner: enough to grow the slab past
	// its initial capacity, few enough that the sequences revisit them.
	for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
		i := int(data[0]) % n
		s := State{Buf: data[1] % BufBins, Temp: (data[1] / BufBins) % TempBins, InNACK: data[1] >> 6,
			OutLink: (data[0] / n) % LinkBins}
		r := rewards[int(data[2])%len(rewards)]
		got, want := sparse[i].Step(s, r), dense[i].step(s, r)
		if got != want {
			t.Fatalf("step %d agent %d: sparse chose %d, dense %d", step, i, got, want)
		}
		for act := range NumActions {
			if g, w := sparse[i].Q(s, act), dense[i].q[s.Index()*NumActions+act]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d agent %d: Q(%v,%d) = %g sparse, %g dense", step, i, s, act, g, w)
			}
			if g, w := sparse[i].t.read(s.Index()).visits[act], dense[i].visits[s.Index()*NumActions+act]; g != w {
				t.Fatalf("step %d agent %d: visits(%v,%d) = %d sparse, %d dense", step, i, s, act, g, w)
			}
		}
	}
	encode := func(walk func(*snap.Codec)) []byte {
		var buf bytes.Buffer
		c := snap.NewEncoder(&buf)
		walk(c)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for i := range sparse {
		if shared && i > 0 {
			if !sparse[i].SharesTableWith(sparse[0]) {
				t.Fatalf("shared agent %d has its own table", i)
			}
			continue
		}
		stream := encode(sparse[i].SnapTable)
		if !bytes.Equal(stream, encode(dense[i].snapTable)) {
			t.Fatalf("agent %d: sparse table stream differs from the dense one", i)
		}
		// A decode into a table that already holds rows must drop them.
		fresh, used := NewAgent(cfg, 1), NewAgent(cfg, 2)
		for k := range 600 {
			used.Step(State{Buf: uint8(k % BufBins), OutNACK: uint8(k % NACKBins), Temp: uint8(k % TempBins)}, 7)
		}
		for _, a := range []*Agent{fresh, used} {
			c := snap.NewDecoder(bytes.NewReader(stream))
			a.SnapTable(c)
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encode(a.SnapTable), stream) {
				t.Fatalf("agent %d: decode then re-encode changed the table stream", i)
			}
		}
		var want, got []int64 // state, update count pairs
		for s := range NumStates {
			if dense[i].visited(s) {
				var n int64
				for _, v := range dense[i].visits[s*NumActions : (s+1)*NumActions] {
					n += int64(v)
				}
				want = append(want, int64(s), n)
			}
		}
		sparse[i].Visits(func(s State, n int64) { got = append(got, int64(s.Index()), n) })
		if !slices.Equal(got, want) {
			t.Fatalf("agent %d: Visits = %v, dense table %v", i, got, want)
		}
		live := len(want) / 2
		for _, a := range []*Agent{fresh, used} {
			if rows := len(a.t.rows) - 1; rows != live {
				t.Fatalf("agent %d: decode built %d rows for %d visited states", i, rows, live)
			}
		}
	}
}

// TestSparseTableMatchesDense runs the referee over every combination of
// its switches on seeded random step sequences.
func TestSparseTableMatchesDense(t *testing.T) {
	for sw := range 16 {
		t.Run(fmt.Sprintf("switches=%04b", sw), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sw)))
			data := make([]byte, 1+3*4000)
			rng.Read(data)
			data[0] = byte(sw)
			checkAgainstDense(t, data)
		})
	}
}

// FuzzAgentTable: arbitrary step sequences under arbitrary switches.
func FuzzAgentTable(f *testing.F) {
	for sw := range 16 {
		f.Add([]byte{byte(sw), 0, 0, 0, 1, 1, 0, 0, 0, 1, 2, 63, 7, 0, 0, 1})
	}
	f.Fuzz(checkAgainstDense)
}

// TestRowLayout pins a Q-table row at its four Q-values and four visit
// counts: a pre-train touches a few hundred rows per table, and a word a
// run never reads would ride in every one of them, in memory and in
// every checkpoint.
func TestRowLayout(t *testing.T) {
	if size := unsafe.Sizeof(row{}); size != 48 {
		t.Errorf("row is %d bytes, want 48", size)
	}
}

// TestTableGrowsOnlyOnUpdate: a fresh agent holds no rows, reads of
// untouched states (Greedy, Q) never add one, and an update
// adds exactly the row of the state it closes.
func TestTableGrowsOnlyOnUpdate(t *testing.T) {
	cfg := config.Default().RL
	cfg.Epsilon = 0
	a := NewAgent(cfg, 1)
	s, next := State{Buf: 3}, State{Temp: 2}
	if allocs := testing.AllocsPerRun(10, func() {
		a.Greedy(s)
		a.Q(next, 2)
	}); allocs != 0 {
		t.Errorf("reading untouched states made %.0f allocations", allocs)
	}
	a.Step(s, 0)
	if rows := len(a.t.rows) - 1; rows != 0 {
		t.Fatalf("the first Step (no update) added %d rows", rows)
	}
	a.Step(next, 1)
	if rows := len(a.t.rows) - 1; rows != 1 || a.t.index[s.Index()] != 1 || a.t.index[next.Index()] != 0 {
		t.Fatalf("one update added %d rows (index of s %d, of next %d), want s's row only",
			rows, a.t.index[s.Index()], a.t.index[next.Index()])
	}
	if a.t.rows[0] != (row{}) {
		t.Fatal("the shared zero row was written")
	}
}

// FuzzTableStream: arbitrary bytes after a QTAB tag either fail as a
// corrupt stream or decode into a table that re-encodes to exactly the
// bytes the decode consumed — and never panic.
func FuzzTableStream(f *testing.F) {
	for k := range 4 {
		a := NewAgent(config.Default().RL, int64(k))
		for j := range 6 + 3*k {
			a.Step(State{Buf: uint8(j % BufBins), InNACK: uint8(j % NACKBins), Temp: uint8(j / 7 % TempBins)}, float64(j%5)-2)
		}
		var buf bytes.Buffer
		c := snap.NewEncoder(&buf)
		a.SnapTable(c)
		if err := c.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[4:])
	}
	f.Add([]byte{1, 0, 0, 0}) // a row count and no row
	// Two rows for state 9: the second does not ascend.
	f.Add(slices.Concat([]byte{2, 0, 0, 0, 9, 0}, make([]byte, 80), []byte{9, 0}, make([]byte, 80)))
	f.Fuzz(func(t *testing.T, body []byte) {
		stream := append([]byte("QTAB"), body...)
		tbl := newTable()
		c := snap.NewDecoder(bytes.NewReader(stream))
		tbl.snap(c)
		if err := c.Err(); err != nil {
			if !snap.IsCorrupt(err) {
				t.Fatalf("err = %v, want a snap.CorruptError", err)
			}
			return
		}
		var out bytes.Buffer
		enc := snap.NewEncoder(&out)
		tbl.snap(enc)
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(stream, out.Bytes()) {
			t.Fatalf("the decoded table re-encodes to %d bytes that are not the %d-byte stream's prefix", out.Len(), len(stream))
		}
		if rows := len(tbl.rows) - 1; tbl.rows[0] != (row{}) || rows > NumStates {
			t.Fatalf("decode left %d rows, row 0 = %+v", rows, tbl.rows[0])
		}
	})
}

// TestRestoredAgentActsAsSource: trained state moves between runs only as
// a snapshot, so an agent decoded from its source's table and locals
// acts, learns and explores exactly as the source does from there on.
func TestRestoredAgentActsAsSource(t *testing.T) {
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
	in := rand.New(rand.NewSource(3))
	state := func() State {
		return State{Buf: uint8(in.Intn(BufBins)), InNACK: uint8(in.Intn(NACKBins)), Temp: uint8(in.Intn(TempBins))}
	}
	src := newAgent(1)
	for range 20_000 {
		s := state()
		src.Step(s, in.Float64()*float64(1+int(s.Temp)))
	}
	// A restore rebuilds its skeleton from the config the stream carries,
	// so the exploration stream has the source's seed, replayed to its
	// position.
	dst := newAgent(1)
	c := snap.NewDecoder(bytes.NewReader(encode(src)))
	dst.SnapTable(c)
	dst.SnapLocal(c)
	c.ReplayDraws(math.MaxUint64)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range 2_000 {
		s, r := state(), in.Float64()
		if got, want := dst.Step(s, r), src.Step(s, r); got != want {
			t.Fatalf("step %d: restored agent chose %d, source %d", i, got, want)
		}
	}
	if !bytes.Equal(encode(dst), encode(src)) {
		t.Fatal("restored agent's state diverged from its source's")
	}
}

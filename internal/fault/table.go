package fault

// Table caches the expensive analytic kernel of the error-probability
// model. Every UpdatePeriod the network re-evaluates the probability of
// all links, but between refreshes most links see the exact same inputs:
// utilization is zero on idle links for whole windows at a time, the
// thermal solver stops moving a tile once it reaches (floating-point)
// equilibrium, and the control epoch triggers a second refresh in the same
// cycle as the periodic one. The cache is keyed on the *exact* (tempC,
// utilization) pair per link rather than on quantized buckets: bucketing
// would perturb the probabilities and break the bit-identical determinism
// pin, whereas an exact-key memo returns the same float64 the analytic
// path would, always. Only the raw (pre-relaxation, pre-clamp) kernel is
// cached, so a link that flips between relaxed and nominal modes still
// hits; the cheap per-mode finish is applied on every lookup.
type tableCell struct {
	valid bool
	tempC float64
	util  float64
	raw   float64
}

// Table memoizes Model.ErrorProbability per link. Not safe for concurrent
// use; each Network owns its own Table.
type Table struct {
	model  *Model
	cells  []tableCell
	hits   int64
	misses int64
}

// NewTable builds a memo table over the model for numLinks links.
func NewTable(m *Model, numLinks int) *Table {
	if numLinks < 0 {
		numLinks = 0
	}
	return &Table{model: m, cells: make([]tableCell, numLinks)}
}

// ErrorProbability returns exactly Model.ErrorProbability(link, tempC,
// utilization, relaxed), recomputing the analytic kernel only when the
// (tempC, utilization) pair changed since the link's last evaluation.
func (t *Table) ErrorProbability(link int, tempC, utilization float64, relaxed bool) float64 {
	if link < 0 || link >= len(t.cells) {
		t.misses++
		return t.model.ErrorProbability(link, tempC, utilization, relaxed)
	}
	c := &t.cells[link]
	if c.valid && c.tempC == tempC && c.util == utilization {
		t.hits++
	} else {
		c.raw = t.model.rawProbability(link, tempC, utilization)
		c.tempC = tempC
		c.util = utilization
		c.valid = true
		t.misses++
	}
	return t.model.finish(c.raw, relaxed)
}

// Stats reports cache hits and misses since construction.
func (t *Table) Stats() (hits, misses int64) { return t.hits, t.misses }

package flit

// Pool is a free list of Flit structs. The steady-state cycle loop clones
// a flit on every protected link transmission (ARQ retransmission buffer,
// wire copy, Mode 2 duplicate) and materializes one per injected flit; a
// heap allocation at each of those sites dominates the simulator's
// allocation profile. The network instead draws from its Pool and returns
// flits at their retirement points (delivery, drop, cumulative ACK), so
// the cruising loop recycles a small working set instead of allocating.
//
// A Pool is single-goroutine, like the Network that owns it: returned
// flits are handed back in simulation order, keeping runs bit-for-bit
// deterministic (Get fully resets a recycled flit, so a run is
// indistinguishable from one that allocated fresh structs throughout).
//
// The zero value is ready to use.
type Pool struct {
	free []*Flit

	// news counts Get calls that had to allocate (pool empty); tests use
	// it to confirm the steady-state loop recycles rather than allocates.
	news int64
	gets int64
	puts int64
}

// Get returns a zeroed flit, recycling a retired one when available.
func (p *Pool) Get() *Flit {
	p.gets++
	if f := p.take(); f != nil {
		*f = Flit{}
		return f
	}
	p.news++
	return &Flit{}
}

// take pops the most recently retired flit, nil when there is none.
func (p *Pool) take() *Flit {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	f := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return f
}

// Put retires a flit to the free list. The caller must hold the only
// remaining reference; nil is ignored so retirement sites need no guard.
func (p *Pool) Put(f *Flit) {
	if f == nil {
		return
	}
	p.puts++
	p.free = append(p.free, f)
}

// Clone returns a pooled deep copy of f (the Packet pointer is shared,
// exactly like Flit.Clone). It counts as one Get, and writes the copy
// once: a recycled flit is overwritten by the copy, not zeroed first.
func (p *Pool) Clone(f *Flit) *Flit {
	p.gets++
	c := p.take()
	if c == nil {
		p.news++
		c = new(Flit)
	}
	*c = *f
	return c
}

// Stats reports lifetime pool traffic: total Gets, how many of those
// allocated fresh structs, and total Puts.
func (p *Pool) Stats() (gets, news, puts int64) { return p.gets, p.news, p.puts }

// Size returns the number of flits currently parked on the free list.
func (p *Pool) Size() int { return len(p.free) }

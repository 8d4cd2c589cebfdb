package delta

import (
	"shufflenet/internal/bits"
	"shufflenet/internal/network"
	"shufflenet/internal/perm"
)

// Decompose recovers the recursive reverse delta structure of a
// circuit, if it has one: it returns an l-level Network d and a rail
// assignment railOf (slot → circuit rail) such that for every input x
// over rails,
//
//	d.Eval(slotView(x))[s] == c.Eval(x)[railOf[s]],
//
// where slotView(x)[s] = x[railOf[s]]. ok is false when the circuit is
// not a reverse delta network (same criterion as IsReverseDelta).
//
// Decompose is what lets the lower-bound adversary attack networks
// given only as circuits (e.g. loaded from a file): the adversary
// recurses on the recovered structure.
//
// The result is a pure function of the circuit's comparator sets: the
// order in which a level lists its comparators does not change it.
// Apart from the backtracking over balanced bipartitions (see
// IsReverseDelta) it costs O(n·l²) on n = 2^l rails.
func Decompose(c *network.Network) (d *Network, railOf []int, ok bool) {
	if !bits.IsPow2(c.Wires()) {
		return nil, nil, false
	}
	return decomposeBlock(c.Wires(), c.Levels())
}

// DecomposeIterated recovers a (k, l)-iterated reverse delta structure
// from a circuit of depth k·l: it cuts the circuit into k consecutive
// l-level segments, decomposes each, and chains them with the
// permutations that reconcile consecutive segments' rail assignments.
// The returned Iterated's slot space for inputs and outputs is the
// circuit's rail space:
//
//	it.Eval(x)[railAt[s]] — use ToNetwork's placement for exact output
//	correspondence; inputs are taken rail-indexed directly.
//
// ok is false if the depth is not a multiple of l or any segment is not
// a reverse delta network. Like Decompose, the recovery is
// deterministic — the same circuit always yields the same structure,
// and so the same adversary analysis and certificate — and costs
// O(n·l²) per block, reading the segments in place.
func DecomposeIterated(c *network.Network, l int) (*Iterated, bool) {
	n := c.Wires()
	if !bits.IsPow2(n) || l < 1 || c.Depth()%l != 0 {
		return nil, false
	}
	blocks := c.Depth() / l
	it := NewIterated(n)
	prevRailOf := perm.Identity(n) // block 0 receives rail-indexed data
	for b := 0; b < blocks; b++ {
		d, railOf, ok := decomposeBlock(n, c.Levels()[b*l:(b+1)*l])
		if !ok {
			return nil, false
		}
		// pre[s] = slot of this block receiving the value that block
		// b-1 left at its slot s (which lives on rail prevRailOf[s]).
		inv := make([]int, n) // rail -> slot of this block
		for s, r := range railOf {
			inv[r] = s
		}
		pre := make(perm.Perm, n)
		for s := 0; s < n; s++ {
			pre[s] = inv[prevRailOf[s]]
		}
		it.AddBlock(pre, d)
		prevRailOf = railOf
	}
	return it, true
}

// block is one l-level segment of an n-rail circuit, indexed by rail
// so that each recursive call of decompose reads only its own rails.
type block struct {
	partner [][]int  // partner[li][r]: the rail r meets at level li, or -1
	isMin   [][]bool // isMin[li][r]: r receives the minimum at level li
	pos     []int    // pos[r]: r's index in the current call's rails
}

// decomposeBlock decomposes the segment levels of an n-rail circuit,
// n a power of two, as one reverse delta network.
func decomposeBlock(n int, levels []network.Level) (*Network, []int, bool) {
	if len(levels) != bits.Lg(n) {
		return nil, nil, false
	}
	b := &block{pos: make([]int, n)}
	for _, lv := range levels {
		partner, isMin := make([]int, n), make([]bool, n)
		for r := range partner {
			partner[r] = -1
		}
		for _, cm := range lv {
			partner[cm.Min], partner[cm.Max] = cm.Max, cm.Min
			isMin[cm.Min] = true
		}
		b.partner = append(b.partner, partner)
		b.isMin = append(b.isMin, isMin)
	}
	railOf := perm.Identity(n)
	d, ok := b.decompose(railOf, len(levels))
	return d, railOf, ok
}

// decompose recovers the l-level reverse delta network on rails, a
// set of 2^l rails closed under the partners of levels 0..l-2: the top
// call gets every rail, and each call hands its sub-calls whole
// components of those levels. On success it reorders rails in place
// so that rails[s] is the rail of output slot s. A call reads only the
// partner entries of its own rails, so it costs O(len(rails)·l).
func (b *block) decompose(rails []int, l int) (*Network, bool) {
	if l == 0 {
		return Leaf(), true
	}
	m := len(rails)
	for i, r := range rails {
		b.pos[r] = i
	}
	scratch := make([]int, 5*m+1)
	comp, color, start, byComp := scratch[:m], scratch[m:2*m], scratch[2*m:3*m+1], scratch[3*m+1:4*m+1]
	roots := scratch[4*m+1 : 4*m+1] // at most m components; capacity m

	// Union-find over positions in rails gives the components of the
	// levels below the last; comp[i] ends as the root of position i.
	for i := range comp {
		comp[i] = i
	}
	find := func(x int) int {
		for comp[x] != x {
			comp[x] = comp[comp[x]]
			x = comp[x]
		}
		return x
	}
	for li := 0; li < l-1; li++ {
		for i, r := range rails {
			if p := b.partner[li][r]; p >= 0 {
				comp[find(i)] = find(b.pos[p])
			}
		}
	}
	for i := range comp {
		comp[i] = find(i)
	}
	// The rails of root x are byComp[start[x]:start[x+1]], in rail order.
	for _, x := range comp {
		start[x+1]++
	}
	for x := 0; x < m; x++ {
		start[x+1] += start[x]
	}
	next := color // borrowed as fill cursors until colouring starts
	copy(next, start[:m])
	for i, x := range comp {
		byComp[next[x]] = rails[i]
		next[x]++
	}
	members := func(x int) []int { return byComp[start[x]:start[x+1]] }

	// The last level's comparators are edges between components, which
	// must 2-colour (one inside a component is a self-loop and fails).
	// Groups — connected parts of the component graph — are found in
	// order of their first rail; roots lists each group's components in
	// visiting order, and color is -1 until a component is visited.
	last := b.partner[l-1]
	for x := range color {
		color[x] = -1
	}
	type group struct{ size0, size1, end int }
	var groups []group
	for _, root := range comp {
		if color[root] >= 0 {
			continue
		}
		g := group{}
		color[root] = 0
		roots = append(roots, root)
		for q := len(roots) - 1; q < len(roots); q++ {
			x := roots[q]
			if color[x] == 0 {
				g.size0 += len(members(x))
			} else {
				g.size1 += len(members(x))
			}
			for _, r := range members(x) {
				p := last[r]
				if p < 0 {
					continue
				}
				if y := comp[b.pos[p]]; color[y] < 0 {
					color[y] = 1 - color[x]
					roots = append(roots, y)
				} else if color[y] == color[x] {
					return nil, false
				}
			}
		}
		g.end = len(roots)
		groups = append(groups, g)
	}

	half := m / 2
	flips := make([]bool, len(groups))
	var result *Network
	var try func(i, side0 int) bool
	try = func(i, side0 int) bool {
		if side0 > half {
			return false
		}
		rest := 0
		for j := i; j < len(groups); j++ {
			most := groups[j].size0
			if groups[j].size1 > most {
				most = groups[j].size1
			}
			rest += most
		}
		if side0+rest < half {
			return false
		}
		if i == len(groups) {
			if side0 != half {
				return false
			}
			// sides[:half] and sides[half:] are the sub-networks' rails.
			sides := make([]int, m)
			fill := [2]int{0, half}
			gStart := 0
			for gi, g := range groups {
				for _, x := range roots[gStart:g.end] {
					s := color[x]
					if flips[gi] {
						s = 1 - s
					}
					fill[s] += copy(sides[fill[s]:], members(x))
				}
				gStart = g.end
			}
			sub0, ok0 := b.decompose(sides[:half], l-1)
			if !ok0 {
				return false
			}
			sub1, ok1 := b.decompose(sides[half:], l-1)
			if !ok1 {
				return false
			}
			// The sub-calls are done with pos: reuse it for the output
			// slot of each rail of sub1. Every last-level comparator
			// joins a rail of each side (guaranteed above).
			for s, r := range sides[half:] {
				b.pos[r] = s
			}
			final := make([]Comp, 0, half)
			for s, r := range sides[:half] {
				if p := last[r]; p >= 0 {
					final = append(final, Comp{O0: s, O1: b.pos[p], MinFirst: b.isMin[l-1][r]})
				}
			}
			result = Combine(sub0, sub1, final)
			copy(rails, sides)
			return true
		}
		flips[i] = false
		if try(i+1, side0+groups[i].size0) {
			return true
		}
		flips[i] = true
		return try(i+1, side0+groups[i].size1)
	}
	if !try(0, 0) {
		return nil, false
	}
	return result, true
}

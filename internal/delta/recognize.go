package delta

import (
	"shufflenet/internal/network"
)

// IsReverseDelta reports whether the circuit c has the topology of an
// l-level reverse delta network on 2^l rails (Definition 3.4), i.e.
// whether its rails can be recursively bipartitioned so that every
// level-i comparator crosses the bipartition at depth i and no
// comparator crosses a bipartition above its level. Comparator
// directions are irrelevant to the topology.
//
// The check is Decompose's: O(n·l²) on n = 2^l rails, plus a
// backtracking search over the bipartition choices (the problem
// contains a balanced-2-coloring subproblem), and its verdict depends
// only on the circuit.
func IsReverseDelta(c *network.Network) bool {
	_, _, ok := Decompose(c)
	return ok
}

// IsDelta reports whether c has the topology of a delta network: the
// level-reversed circuit must be a reverse delta network ("a reverse
// delta network is obtained from a delta network by flipping the
// network", Section 2).
func IsDelta(c *network.Network) bool {
	return IsReverseDelta(ReverseLevels(c))
}

// ReverseLevels returns a copy of c with the order of its levels
// reversed (the "flip" interchanging inputs and outputs).
func ReverseLevels(c *network.Network) *network.Network {
	out := network.New(c.Wires())
	for i := c.Depth() - 1; i >= 0; i-- {
		out.AddLevel(c.Level(i))
	}
	return out
}

// Package halver implements ε-halvers, the building block of
// AKS-style sorting networks.
//
// The paper cites the AKS network [1] as the O(lg n)-depth comparison
// point but (like everyone) does not construct it; this package is the
// substitution documented in DESIGN.md: exact, *verified* ε-halvers
// built from repeated random cross-matchings, plus the recursive
// halver cascade that nearly-sorts almost all inputs at O(lg n) depth —
// the phenomenon Section 5 appeals to when bounding what the lower
// bound cannot show.
//
// A comparator network on 2m wires is an ε-halver if, for every
// 1 <= k <= m, at most ε·k of the k smallest values end in the upper
// half and at most ε·k of the k largest values end in the lower half.
// By the 0-1 principle it suffices to check all 0-1 inputs, which
// Epsilon does exactly.
package halver

import (
	"context"
	"fmt"
	mathbits "math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"shufflenet/internal/bits"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
	"shufflenet/internal/par"
	"shufflenet/internal/perm"
	"shufflenet/internal/sortcheck"
)

// Halver metrics: masks exhausted per Epsilon call (added once per
// call, never per mask) and the most recently measured ε.
var (
	metEpsMasks = obs.C("halver.epsilon.masks")
	metEpsCalls = obs.C("halver.epsilon.calls")
	metEpsLast  = obs.FG("halver.epsilon.last")
)

// CrossMatchings returns a network of `passes` levels on n = 2m wires,
// each level a uniformly random perfect matching between the lower half
// and the upper half, with every comparator directing its minimum to
// the lower-half wire. Repeated random matchings are expanders with
// high probability, so for any ε > 0 a constant number of passes yields
// an ε-halver w.h.p.; use Epsilon to verify an instance exactly.
func CrossMatchings(n, passes int, rng *rand.Rand) *network.Network {
	if n < 2 || n%2 != 0 {
		panic(fmt.Sprintf("halver.CrossMatchings: n = %d must be even and >= 2", n))
	}
	m := n / 2
	c := network.New(n)
	for p := 0; p < passes; p++ {
		match := perm.Random(m, rng)
		lv := make(network.Level, m)
		for i := 0; i < m; i++ {
			lv[i] = network.Comparator{Min: i, Max: m + match[i]}
		}
		c.AddLevel(lv)
	}
	return c
}

// MaxEpsilonWires bounds Epsilon's exhaustive 0-1 enumeration. The
// bit-sliced kernel settles 64 inputs per pass, which is what makes
// widths this large practical (the cap was 24 before the kernel).
const MaxEpsilonWires = 28

// Epsilon returns the exact halving quality of the network: the
// smallest ε such that c is an ε-halver, computed by exhausting all
// 2^n 0-1 inputs in parallel on the bit-sliced kernel: 64 masks per
// block, with the per-lane count of ones left in the lower half
// accumulated in vertical bit-plane counters and reduced per weight
// class (see EpsilonCtx). A perfect halver has ε = 0; a
// network that does nothing has ε = 1. n must be at most
// MaxEpsilonWires. EpsilonScalar is the differential-test oracle.
func Epsilon(c *network.Network, workers int) float64 {
	eps, _ := EpsilonCtx(context.Background(), c, workers)
	return eps
}

// EpsilonCtx is Epsilon under a context. Cancellation is observed once
// per worker chunk. On cancellation the returned value is the maximum
// misplacement ratio over the chunks completed so far — a valid
// *lower* bound on the true ε (ε can only grow as more masks are seen)
// — and the *par.ErrCanceled reports how many masks were settled.
//
// No lane is read out one at a time. Lane j of block b carries the
// mask 64b+j, whose weight is popcount(b)+popcount(j), so the lanes of
// a block fall into seven weight classes, one per popcount(j). Within
// a class one count settles both halving conditions: a weight-w mask
// that leaves c ones on the lower half leaves m-(w-c) zeros on the
// upper half. So for each class the kernel takes only the bit-sliced
// maximum of one vertical counter (planeMax), and each worker keeps
// the integer maximum misplacement per k = 1..m. The ratios are formed
// once per k when the chunk ends: the largest of count/k over masks of
// one k is max(count)/k, the same float division the per-mask
// definition makes, so ε is exact and equal to EpsilonScalar's.
func EpsilonCtx(ctx context.Context, c *network.Network, workers int) (float64, error) {
	n := c.Wires()
	if n > MaxEpsilonWires {
		panic(fmt.Sprintf("halver.Epsilon: n = %d exceeds %d", n, MaxEpsilonWires))
	}
	if n%2 != 0 {
		panic("halver.Epsilon: odd wire count")
	}
	m := n / 2
	prog := c.Compile()
	blocks, laneMask := network.ZeroOneBlocks(n)
	lanes := mathbits.OnesCount64(laneMask)
	classes := laneClass
	for i := range classes {
		classes[i] &= laneMask
	}
	var mu sync.Mutex
	eps := 0.0
	var scanned int64
	cerr := par.ForEachChunkCtx(ctx, blocks, workers, func(lo, hi int) {
		bb := network.NewBitBatch(prog)
		defer bb.FlushMetrics()
		// worst[k]: the most of the k largest values (the ones of a
		// weight-k mask) left on the lower half, or of the k smallest
		// (the zeros of a weight-(n-k) mask) left on the upper half.
		var worst [MaxEpsilonWires/2 + 1]int
		for b := lo; b < hi; b++ {
			bb.LoadBlock(uint64(b))
			out := bb.Eval()
			// Vertical counter: plane p of low[ ] holds bit p of the
			// per-lane count of ones on the lower-half wires. m <= 14 <
			// 2^5, so five planes cannot overflow.
			var low [5]uint64
			for i := 0; i < m; i++ {
				addPlane(&low, out[i])
			}
			weight := mathbits.OnesCount64(uint64(b))
			for pc, cls := range classes {
				ones := weight + pc
				if cls == 0 || ones == 0 || ones == n {
					continue
				}
				top := planeMax(&low, cls)
				if ones <= m {
					worst[ones] = max(worst[ones], top)
				}
				if zeros := n - ones; zeros <= m {
					// ones-top ones went high, so m-(ones-top) zeros did.
					worst[zeros] = max(worst[zeros], top-(ones-m))
				}
			}
		}
		local := 0.0
		for k := 1; k <= m; k++ {
			local = max(local, float64(worst[k])/float64(k))
		}
		mu.Lock()
		eps = max(eps, local)
		mu.Unlock()
		atomic.AddInt64(&scanned, int64(hi-lo))
	})
	if cerr != nil {
		mu.Lock()
		partial := eps
		mu.Unlock()
		return partial, &par.ErrCanceled{
			Op:           "halver.Epsilon",
			Cause:        cerr,
			MasksChecked: atomic.LoadInt64(&scanned) * int64(lanes),
		}
	}
	metEpsCalls.Inc()
	metEpsMasks.Add(int64(1) << uint(n))
	metEpsLast.Set(eps)
	return eps, nil
}

// laneClass[p] holds the lanes j of a 64-lane block with
// popcount(j) = p: within one block, the lanes of equal weight.
var laneClass = func() (cls [7]uint64) {
	for j := 0; j < 64; j++ {
		cls[mathbits.OnesCount(uint(j))] |= 1 << uint(j)
	}
	return cls
}()

// addPlane ripple-carry adds one bit per lane (the set bits of w) into
// the vertical counter planes.
func addPlane(planes *[5]uint64, w uint64) {
	for i := 0; i < len(planes) && w != 0; i++ {
		carry := planes[i] & w
		planes[i] ^= w
		w = carry
	}
}

// planeMax returns the largest count the vertical planes hold in any
// lane of cand (cand != 0). It walks the planes from the top bit down,
// narrowing cand to the lanes that have the bit whenever any of them
// does.
func planeMax(planes *[5]uint64, cand uint64) int {
	v := 0
	for i := len(planes) - 1; i >= 0; i-- {
		if t := cand & planes[i]; t != 0 {
			cand = t
			v |= 1 << uint(i)
		}
	}
	return v
}

// EpsilonScalar computes Epsilon by scalar enumeration (one Eval per
// mask): the differential-test oracle for the bit-sliced path.
func EpsilonScalar(c *network.Network, workers int) float64 {
	n := c.Wires()
	if n > MaxEpsilonWires {
		panic(fmt.Sprintf("halver.Epsilon: n = %d exceeds %d", n, MaxEpsilonWires))
	}
	if n%2 != 0 {
		panic("halver.Epsilon: odd wire count")
	}
	m := n / 2
	total := 1 << uint(n)
	w := par.Workers(total, workers)
	worst := make([]float64, w)
	par.ForEachChunk(total, w, func(lo, hi int) {
		slot := lo / ((total + w - 1) / w)
		if slot >= w {
			slot = w - 1
		}
		local := 0.0
		for mask := lo; mask < hi; mask++ {
			in := sortcheck.ZeroOneInput(uint64(mask), n)
			ones := 0
			for _, v := range in {
				ones += v
			}
			if ones == 0 || ones == n {
				continue
			}
			out := c.Eval(in)
			// k largest = the `ones` 1-values; misplaced = ones in the
			// lower half. Meaningful when ones <= m.
			onesLow := 0
			for i := 0; i < m; i++ {
				onesLow += out[i]
			}
			if ones <= m {
				if r := float64(onesLow) / float64(ones); r > local {
					local = r
				}
			}
			// k smallest = the zeros; misplaced = zeros in the upper
			// half. Meaningful when zeros <= m.
			zeros := n - ones
			if zeros <= m {
				zerosHigh := 0
				for i := m; i < n; i++ {
					zerosHigh += 1 - out[i]
				}
				if r := float64(zerosHigh) / float64(zeros); r > local {
					local = r
				}
			}
		}
		if local > worst[slot] {
			worst[slot] = local
		}
	})
	eps := 0.0
	for _, v := range worst {
		if v > eps {
			eps = v
		}
	}
	return eps
}

// IsEpsilonHalver reports whether c is an ε-halver for the given ε
// (exact, via Epsilon).
func IsEpsilonHalver(c *network.Network, eps float64, workers int) bool {
	return Epsilon(c, workers) <= eps+1e-12
}

// Cascade returns the recursive halver network on n = 2^d wires: apply
// `passes` random cross-matchings at the full width, then recurse on
// the two halves, down to blocks of 2. Depth is passes·lg n — an
// O(lg n)-depth network that nearly sorts almost all inputs when passes
// is a sufficiently large constant (the AKS skeleton without the
// error-correction machinery).
func Cascade(n, passes int, rng *rand.Rand) *network.Network {
	bits.Lg(n)
	c := network.New(n)
	addCascade(c, 0, n, passes, rng)
	return c
}

// addCascade appends the levels for the block [off, off+size); sibling
// blocks at the same scale are merged into shared levels.
func addCascade(c *network.Network, off, size, passes int, rng *rand.Rand) {
	for scale := size; scale >= 2; scale /= 2 {
		blocks := size / scale
		for p := 0; p < passes; p++ {
			lv := network.Level{}
			for b := 0; b < blocks; b++ {
				base := off + b*scale
				m := scale / 2
				match := perm.Random(m, rng)
				for i := 0; i < m; i++ {
					lv = append(lv, network.Comparator{Min: base + i, Max: base + m + match[i]})
				}
			}
			c.AddLevel(lv)
		}
	}
}

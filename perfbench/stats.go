package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"runtime/debug"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// repeated collects the times of each unit of work a run repeats (a
// slab, a job) so that each unit's cost can be read as a low quantile
// of its own times. On a shared 2-vCPU Xeon VM the vCPUs slow down by
// up to half for seconds at a time while other tenants hold the host
// (measured: one fixed loop took 2.1 ms in quiet seconds and 4.2 ms in
// others), so a typical repetition measures the neighbours while the
// quiet ones measure the program; a change to the program moves the
// quiet ones too. A unit repeated hundreds of times reads its fastest
// repetition; one repeated tens of times reads its lower quartile,
// where the fastest alone is a lucky draw (measured over five seeds:
// lab's job costs spread 10-21% as minima and 3% as lower quartiles,
// sortlib's slab costs 3-5% as minima and 6-11% as lower quartiles).
type repeated [][]float64

func (r repeated) observe(i int, d time.Duration) { r[i] = append(r[i], ms(d)) }

// costs returns each unit's cost in ms.
func (r repeated) costs(q float64) []float64 {
	out := make([]float64, len(r))
	for i, xs := range r {
		out[i] = quantile(xs, q)
	}
	return out
}

var errNondeterministic = errors.New("inputs differ between set-ups from one seed")

// setupRepeats is how many times each workload sets up per run; the
// reported setup_s is the median.
const setupRepeats = 9

// timeSetup runs build setupRepeats times and returns the last result
// and the median duration in seconds. Every repetition must produce the
// same input digest: the inputs are a function of the seed alone.
func timeSetup[T any](build func() (T, string, error)) (T, string, float64, error) {
	var v T
	var digest string
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		// Drop the previous repetition's inputs first, so the peak
		// resident set holds one copy, as a single set-up would.
		v = *new(T)
		debug.FreeOSMemory()
		start := time.Now()
		got, d, err := build()
		if err != nil {
			return v, "", 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i > 0 && d != digest {
			return v, "", 0, errNondeterministic
		}
		v, digest = got, d
	}
	return v, digest, median(secs), nil
}

// digester fingerprints a workload's generated inputs.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) ints(xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		d.h.Write(b[:])
	}
}

func (d *digester) str(s string) {
	d.ints(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

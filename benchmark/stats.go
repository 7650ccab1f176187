package main

import (
	"math"
	"sort"
)

// sample is one timed operation: when it was due (seconds from the
// start of its phase), how long it took from then in milliseconds, and
// the rows it carried (appends; 0 for one that failed).
type sample struct {
	at   float64
	ms   float64
	rows int
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func median(vals []float64) float64 { return quantile(sortedCopy(vals), 0.5) }

// The sandbox is a few processors of a shared host, and a neighbour only
// ever takes time away: for seconds at a stretch it slows a share of the
// operations of a run, and how large a share differs from run to run. The
// median of a run moves with that share; a quantile on the undisturbed
// side does not until the neighbour reaches past it. Every bounded
// timing is therefore a lower quartile and every bounded rate an upper
// quantile — what the program does when it has the machine — and the
// medians and tails are printed beside them without a bound.
const (
	lowerQuartile = 0.25
	upperQuartile = 0.75
	upperDecile   = 0.9
)

// quietTime is the lower quartile of timings.
func quietTime(ms []float64) float64 { return quantile(sortedCopy(ms), lowerQuartile) }

// quietRate is the q-quantile of rates, q on the upper side.
func quietRate(rates []float64, q float64) float64 { return quantile(sortedCopy(rates), q) }

// rateSlice is how long a slice of a closed loop is when its rate is
// taken: long enough to hold some tens of appends, short enough that a
// collection or a heartbeat round falls into a minority of slices.
const rateSlice = 0.02

// sliceRates cuts a closed loop into consecutive slices of rateSlice
// seconds and returns, for each, the rows per second all generators
// together were acknowledged in it. The slices a phase begins and ends in
// are partial and are left out.
func sliceRates(samples []sample) []float64 {
	if len(samples) == 0 {
		return nil
	}
	begin, end, total := math.Inf(1), math.Inf(-1), 0
	rows := map[int]int{}
	for _, s := range samples {
		done := s.at + s.ms/1e3
		rows[int(done/rateSlice)] += s.rows
		begin, end, total = min(begin, s.at), max(end, done), total+s.rows
	}
	first, last := int(begin/rateSlice), int(end/rateSlice)
	if last-first < 2 { // no whole slice: the rate over all of it
		return []float64{ratio(float64(total), end-begin)}
	}
	rates := make([]float64, 0, last-first-1)
	for i := first + 1; i < last; i++ {
		rates = append(rates, float64(rows[i])/rateSlice)
	}
	return rates
}

// maxWindows bounds how finely a phase is cut into windows.
const maxWindows = 40

// windowedQuantile is the median over consecutive windows of each
// window's q-quantile. A whole-run tail percentile is set by the one
// window a collection or a heartbeat happened to land in; the median of
// windows repeats. The samples, in the order they were due, are cut into
// as many equal windows as leave each at least ten samples beyond q, so
// the percentile is one the sample supports, and at most maxWindows.
// (Equal counts, not equal times: in a closed loop a slow stretch holds
// few samples, and equal times would count it as often as a fast one.)
func windowedQuantile(samples []sample, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	ordered := append([]sample(nil), samples...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].at < ordered[j].at })
	need := int(math.Ceil(10 / (1 - q)))
	windows := min(max(len(ordered)/need, 1), maxWindows)
	per := make([]float64, windows)
	for w := range per {
		chunk := millis(ordered[w*len(ordered)/windows : (w+1)*len(ordered)/windows])
		sort.Float64s(chunk)
		per[w] = quantile(chunk, q)
	}
	return median(per)
}

func millis(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

// spread summarises repeated measurements of one metric the way the
// acceptance rule does: the distance between the first and third
// quartile as a share of the median, plus the largest relative
// deviation of any run from the median.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	IQRRel float64 `json:"iqr_rel"`
	MaxDev float64 `json:"max_rel_dev"`
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// exclusive method the acceptance rule names.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	return at(1), at(2), at(3)
}

func spreadOf(vals []float64) spread {
	q1, _, q3 := quartiles(vals)
	m := median(vals)
	sp := spread{Median: m, Q1: q1, Q3: q3}
	if m != 0 {
		sp.IQRRel = (q3 - q1) / math.Abs(m)
		for _, v := range vals {
			sp.MaxDev = math.Max(sp.MaxDev, math.Abs(v-m)/math.Abs(m))
		}
	}
	return sp
}

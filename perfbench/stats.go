package main

import (
	"math"
	"sort"
	"time"
)

// samples is one timing series in seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

// quantile returns the q-quantile by linear interpolation between order
// statistics (0 for an empty series).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (pos-float64(lo))*(v[hi]-v[lo])
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

func (s samples) max() float64 { return s.quantile(1) }

// ratio is num/den, or 0 when the base is empty; every ratio the
// benchmark reports is printed next to its base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

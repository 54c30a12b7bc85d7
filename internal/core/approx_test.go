package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
)

// TestProposition6ApproximationFactor checks the c/(c−1) guarantee: when
// the nearest inlier sits at distance ≥ c·ε from the outlier, the
// Algorithm 1 answer is within c/(c−1) of the optimum.
func TestProposition6ApproximationFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	checked := 0
	for trial := 0; trial < 40 && checked < 15; trial++ {
		// Integer grid cluster keeps brute-force optimality computable.
		r := data.NewRelation(data.NewNumericSchema("a", "b"))
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				r.Append(data.Tuple{data.Num(float64(i)), data.Num(float64(j))})
			}
		}
		cons := Constraints{Eps: 1.5, Eta: 4}
		// Outlier far out along one axis.
		to := data.Tuple{
			data.Num(15 + rng.Float64()*10),
			data.Num(math.Floor(rng.Float64() * 6)),
		}
		// c from the premise: nearest inlier distance / ε.
		nearest := math.Inf(1)
		for _, tp := range r.Tuples {
			if d := r.Schema.Dist(to, tp); d < nearest {
				nearest = d
			}
		}
		c := nearest / cons.Eps
		if c <= 1.05 {
			continue // premise not satisfied; guarantee does not apply
		}
		s, err := NewSaverContext(context.Background(), r, cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		adj := s.SaveOne(context.Background(), to)
		if !adj.Saved() {
			continue
		}
		_, opt := bruteOptimal(r, cons, to, 0)
		if math.IsInf(opt, 1) || opt == 0 {
			continue
		}
		checked++
		factor := adj.Cost / opt
		bound := c / (c - 1)
		if factor > bound+1e-9 {
			t.Errorf("trial %d: approximation factor %.4f exceeds c/(c−1) = %.4f (c=%.2f)",
				trial, factor, bound, c)
		}
	}
	if checked < 5 {
		t.Fatalf("only %d instances satisfied the premise; test vacuous", checked)
	}
}

// TestProposition7IntegralMetricFactor checks the ε+1 guarantee for
// unit-valued (edit-distance style) metrics, here integer absolute
// differences with integer ε.
func TestProposition7IntegralMetricFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	checked := 0
	for trial := 0; trial < 60 && checked < 20; trial++ {
		r := data.NewRelation(data.NewNumericSchema("a"))
		for i := 0; i < 8; i++ {
			for rep := 0; rep < 4; rep++ {
				r.Append(data.Tuple{data.Num(float64(i))})
			}
		}
		cons := Constraints{Eps: 1, Eta: 5} // integer ε, unit distances
		to := data.Tuple{data.Num(float64(20 + rng.Intn(30)))}
		s, err := NewSaverContext(context.Background(), r, cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		adj := s.SaveOne(context.Background(), to)
		if !adj.Saved() {
			continue
		}
		_, opt := bruteOptimal(r, cons, to, 0)
		if math.IsInf(opt, 1) || opt == 0 {
			continue
		}
		checked++
		if factor := adj.Cost / opt; factor > cons.Eps+1+1e-9 {
			t.Errorf("trial %d: factor %.4f exceeds ε+1 = %v", trial, factor, cons.Eps+1)
		}
	}
	if checked < 5 {
		t.Fatalf("only %d instances checked; test vacuous", checked)
	}
}

// TestApproximationTightensWithDistance verifies the Proposition 6
// discussion: the farther the outlier from r (larger c), the closer the
// approximation gets to optimal.
func TestApproximationTightensWithDistance(t *testing.T) {
	r := data.NewRelation(data.NewNumericSchema("a", "b"))
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			r.Append(data.Tuple{data.Num(float64(i)), data.Num(float64(j))})
		}
	}
	cons := Constraints{Eps: 1.5, Eta: 4}
	s, err := NewSaverContext(context.Background(), r, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	worst := func(dist float64) float64 {
		to := data.Tuple{data.Num(dist), data.Num(2)}
		adj := s.SaveOne(context.Background(), to)
		if !adj.Saved() {
			t.Fatalf("unsaved at distance %v", dist)
		}
		_, opt := bruteOptimal(r, cons, to, 0)
		return adj.Cost / opt
	}
	near := worst(9)
	far := worst(60)
	if far > near+1e-9 {
		t.Errorf("approximation factor grew with distance: near %v, far %v", near, far)
	}
	if far > 1.05 {
		t.Errorf("far outlier factor %v should be ≈ 1", far)
	}
}

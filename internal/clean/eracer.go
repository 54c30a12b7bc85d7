package clean

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/data"
)

// ERACER reproduces the statistical cleaner of Mayfield et al. [34]: each
// numeric attribute is modeled by a linear regression over the other
// attributes, learned directly from the (dirty) data; cells whose residual
// exceeds ResidualZ standard deviations are replaced by the regression
// prediction, and the model is re-learned for a few iterations — the
// iterative relational dependency inference of the original, specialized
// to linear models. ERACER supports only numeric attributes (as the paper
// notes in Figure 8's caption).
type ERACER struct {
	// Iters is the number of learn/repair rounds (default 3).
	Iters int
	// ResidualZ is the outlier-residual threshold in σ units (default 3).
	ResidualZ float64
}

// Clean implements Cleaner.
func (e *ERACER) Clean(rel *data.Relation) (*data.Relation, error) {
	for _, a := range rel.Schema.Attrs {
		if a.Kind != data.Numeric {
			return nil, fmt.Errorf("clean: ERACER supports only numeric attributes, got %q", a.Name)
		}
	}
	iters := e.Iters
	if iters <= 0 {
		iters = 3
	}
	z := e.ResidualZ
	if z <= 0 {
		z = 3
	}
	out := rel.Clone()
	n := out.N()
	m := out.Schema.M()
	if n < m+2 {
		return out, nil // not enough data to fit anything
	}
	for iter := 0; iter < iters; iter++ {
		// One robust regression per attribute, then at most one repaired
		// cell per tuple per round: ERACER cannot tell which cell of an
		// inconsistent tuple is wrong (the limitation §5 discusses), but
		// repairing only the worst-scoring cell at least avoids cascading
		// a single error into every attribute.
		type fit struct {
			beta  []float64
			sigma float64
		}
		fits := make([]*fit, m)
		for a := 0; a < m; a++ {
			beta, sigma, ok := robustFit(out, a)
			if ok && sigma > 0 {
				fits[a] = &fit{beta: beta, sigma: sigma}
			}
		}
		changed := false
		for _, t := range out.Tuples {
			worstA, worstZ := -1, z
			for a := 0; a < m; a++ {
				if fits[a] == nil {
					continue
				}
				zz := math.Abs(t[a].Num-predict(fits[a].beta, t, a)) / fits[a].sigma
				if zz > worstZ {
					worstA, worstZ = a, zz
				}
			}
			if worstA >= 0 {
				t[worstA] = data.Num(predict(fits[worstA].beta, t, worstA))
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return out, nil
}

// robustFit fits the regression of attribute a, drops the 2% of tuples
// with the largest residuals, refits, and returns the refit coefficients
// with the kept residuals' standard deviation.
func robustFit(rel *data.Relation, a int) ([]float64, float64, bool) {
	beta, ok := fitLinear(rel, a)
	if !ok {
		return nil, 0, false
	}
	n := rel.N()
	type rr struct {
		i   int
		abs float64
	}
	res := make([]rr, n)
	for i, t := range rel.Tuples {
		res[i] = rr{i: i, abs: math.Abs(t[a].Num - predict(beta, t, a))}
	}
	sort.Slice(res, func(x, y int) bool { return res[x].abs < res[y].abs })
	keep := n - n/50 - 1
	if keep < len(rel.Tuples[0])+2 {
		keep = n
	}
	sub := data.NewRelation(rel.Schema)
	for _, r := range res[:keep] {
		sub.Append(rel.Tuples[r.i])
	}
	beta2, ok := fitLinear(sub, a)
	if !ok {
		beta2 = beta
	}
	varsum := 0.0
	for _, t := range sub.Tuples {
		d := t[a].Num - predict(beta2, t, a)
		varsum += d * d
	}
	sigma := math.Sqrt(varsum/float64(sub.N())) + 1e-12
	return beta2, sigma, true
}

// fitLinear solves the least-squares regression of attribute a on the
// remaining attributes plus an intercept, via the normal equations.
func fitLinear(rel *data.Relation, a int) ([]float64, bool) {
	m := rel.Schema.M()
	p := m // m−1 predictors + intercept
	// Build XᵀX and Xᵀy.
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	row := make([]float64, p)
	for _, t := range rel.Tuples {
		row[0] = 1
		k := 1
		for b := 0; b < m; b++ {
			if b == a {
				continue
			}
			row[k] = t[b].Num
			k++
		}
		y := t[a].Num
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y
		}
	}
	// Ridge damping keeps the system solvable under collinearity.
	for i := 0; i < p; i++ {
		xtx[i][i] += 1e-8
	}
	beta, ok := solve(xtx, xty)
	if !ok {
		return nil, false
	}
	return beta, true
}

// predict evaluates the regression of attribute a at tuple t.
func predict(beta []float64, t data.Tuple, a int) float64 {
	y := beta[0]
	k := 1
	for b := 0; b < len(t); b++ {
		if b == a {
			continue
		}
		y += beta[k] * t[b].Num
		k++
	}
	return y
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// the system.
func solve(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, true
}

package clean

import (
	"math"

	"repro/internal/data"
)

// HoloClean reproduces the probabilistic cleaner of Rekatsinas et al.
// [41], reduced to its statistical core: attribute values are discretized
// into bins, pairwise co-occurrence statistics are learned from the data
// (the empirical-risk counterpart of treating clean cells as labeled
// examples), and each suspicious cell is repaired to the MAP bin of a
// naive-Bayes posterior given the tuple's other attributes. A cell is
// suspicious when its value is improbable given the rest of the tuple;
// repairs replace it with the posterior-modal bin's representative value.
// Like the original, this modifies many attributes of a dirty tuple
// (Figure 10c–d) at a high adjustment cost (Figure 10e–f).
type HoloClean struct {
	// Bins is the number of discretization bins per numeric attribute
	// (default 8).
	Bins int
	// Gain is the posterior odds a repair must exceed over keeping the
	// current value (default 2).
	Gain float64
}

type hcModel struct {
	bins  int
	m     int
	lo    []float64
	width []float64
	// text domains per attribute (bin = domain index); nil for numeric.
	textDom []map[string]int
	textVal [][]string
	// cooc[a][b][va*binsB+vb] counts value va of a with vb of b.
	cooc [][][]float64
	// freq[a][va] counts value va of a.
	freq  [][]float64
	sizes []int
}

// Clean implements Cleaner.
func (h *HoloClean) Clean(rel *data.Relation) (*data.Relation, error) {
	bins := h.Bins
	if bins <= 1 {
		bins = 8
	}
	gain := h.Gain
	if gain <= 1 {
		gain = 1.5
	}
	out := rel.Clone()
	if out.N() < 4 {
		return out, nil
	}
	mod := buildHCModel(out, bins)

	for _, t := range out.Tuples {
		code := mod.encode(t)
		for a := 0; a < mod.m; a++ {
			cur := code[a]
			bestV, bestScore := cur, mod.posterior(code, a, cur)
			for v := 0; v < mod.sizes[a]; v++ {
				if v == cur {
					continue
				}
				if sc := mod.posterior(code, a, v); sc > bestScore {
					bestV, bestScore = v, sc
				}
			}
			if bestV != cur && bestScore-mod.posterior(code, a, cur) > math.Log(gain) {
				mod.assign(t, a, bestV)
				code[a] = bestV
			}
		}
	}
	return out, nil
}

func buildHCModel(rel *data.Relation, bins int) *hcModel {
	m := rel.Schema.M()
	mod := &hcModel{
		bins:    bins,
		m:       m,
		lo:      make([]float64, m),
		width:   make([]float64, m),
		textDom: make([]map[string]int, m),
		textVal: make([][]string, m),
		sizes:   make([]int, m),
	}
	for a := 0; a < m; a++ {
		if rel.Schema.Attrs[a].Kind == data.Text {
			dom := map[string]int{}
			var vals []string
			for _, t := range rel.Tuples {
				if _, ok := dom[t[a].Str]; !ok {
					dom[t[a].Str] = len(vals)
					vals = append(vals, t[a].Str)
				}
			}
			mod.textDom[a] = dom
			mod.textVal[a] = vals
			mod.sizes[a] = len(vals)
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, t := range rel.Tuples {
			if t[a].Num < lo {
				lo = t[a].Num
			}
			if t[a].Num > hi {
				hi = t[a].Num
			}
		}
		mod.lo[a] = lo
		if hi > lo {
			mod.width[a] = (hi - lo) / float64(bins)
		} else {
			mod.width[a] = 1
		}
		mod.sizes[a] = bins
	}
	mod.freq = make([][]float64, m)
	for a := 0; a < m; a++ {
		mod.freq[a] = make([]float64, mod.sizes[a])
	}
	mod.cooc = make([][][]float64, m)
	for a := 0; a < m; a++ {
		mod.cooc[a] = make([][]float64, m)
		for b := 0; b < m; b++ {
			if b == a {
				continue
			}
			mod.cooc[a][b] = make([]float64, mod.sizes[a]*mod.sizes[b])
		}
	}
	for _, t := range rel.Tuples {
		code := mod.encode(t)
		for a := 0; a < m; a++ {
			mod.freq[a][code[a]]++
			for b := 0; b < m; b++ {
				if b == a {
					continue
				}
				mod.cooc[a][b][code[a]*mod.sizes[b]+code[b]]++
			}
		}
	}
	return mod
}

// encode maps a tuple to per-attribute bin codes.
func (mod *hcModel) encode(t data.Tuple) []int {
	code := make([]int, mod.m)
	for a := 0; a < mod.m; a++ {
		if mod.textDom[a] != nil {
			if v, ok := mod.textDom[a][t[a].Str]; ok {
				code[a] = v
			} else {
				code[a] = 0
			}
			continue
		}
		b := int((t[a].Num - mod.lo[a]) / mod.width[a])
		if b < 0 {
			b = 0
		}
		if b >= mod.bins {
			b = mod.bins - 1
		}
		code[a] = b
	}
	return code
}

// posterior is the smoothed naive-Bayes log score of value v for attribute
// a given the other attributes' codes.
func (mod *hcModel) posterior(code []int, a, v int) float64 {
	total := 0.0
	for _, f := range mod.freq[a] {
		total += f
	}
	score := math.Log((mod.freq[a][v] + 1) / (total + float64(mod.sizes[a])))
	for b := 0; b < mod.m; b++ {
		if b == a {
			continue
		}
		joint := mod.cooc[a][b][v*mod.sizes[b]+code[b]]
		score += math.Log((joint + 1) / (mod.freq[a][v] + float64(mod.sizes[b])))
	}
	return score
}

// assign writes the representative value of bin v into attribute a.
func (mod *hcModel) assign(t data.Tuple, a, v int) {
	if mod.textDom[a] != nil {
		t[a] = data.Str(mod.textVal[a][v])
		return
	}
	t[a] = data.Num(mod.lo[a] + (float64(v)+0.5)*mod.width[a])
}

package data

import "fmt"

// Dataset bundles a relation with the ground truth the experiments need:
// class labels for clustering accuracy, the set of corrupted attributes per
// tuple for cleaning accuracy (Figures 9–10), and the pre-corruption values.
type Dataset struct {
	// Name identifies the Table 1 dataset this instance reproduces.
	Name string
	// Rel holds the (possibly dirty) tuples.
	Rel *Relation
	// Labels holds the ground-truth class per tuple; -1 marks natural
	// outliers that belong to no class.
	Labels []int
	// Dirty[i] is the mask of attributes corrupted in tuple i (0 = clean).
	Dirty []AttrMask
	// Natural[i] marks tuple i as a natural outlier (true abnormal
	// behaviour, not an error).
	Natural []bool
	// Clean[i] is the original tuple before corruption for dirty tuples,
	// nil for untouched tuples.
	Clean []Tuple
	// Eps and Eta are the paper's distance constraints for this dataset
	// where stated, otherwise tuned defaults for the synthetic instance.
	Eps float64
	Eta int
	// Classes is the number of ground-truth classes (K for K-Means).
	Classes int
}

// N returns the number of tuples.
func (d *Dataset) N() int { return d.Rel.N() }

// DirtyCount returns the number of tuples with injected errors.
func (d *Dataset) DirtyCount() int {
	c := 0
	for _, m := range d.Dirty {
		if m != 0 {
			c++
		}
	}
	return c
}

// NaturalCount returns the number of natural outliers.
func (d *Dataset) NaturalCount() int {
	c := 0
	for _, b := range d.Natural {
		if b {
			c++
		}
	}
	return c
}

// Validate checks internal consistency of the parallel slices.
func (d *Dataset) Validate() error {
	n := d.Rel.N()
	if len(d.Labels) != n || len(d.Dirty) != n || len(d.Natural) != n || len(d.Clean) != n {
		return fmt.Errorf("data: dataset %q: parallel slices disagree with n=%d", d.Name, n)
	}
	for i := 0; i < n; i++ {
		if d.Dirty[i] != 0 && d.Clean[i] == nil {
			return fmt.Errorf("data: dataset %q: tuple %d dirty but has no clean original", d.Name, i)
		}
	}
	return d.Rel.Schema.Validate()
}

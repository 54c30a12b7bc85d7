// Package clean implements the general-purpose data-cleaning competitors
// of the paper's evaluation (§4.1.4, §5): DORC (simultaneous clustering
// and cleaning by tuple substitution), ERACER (statistical regression
// cleaning), Holistic (denial-constraint repair) and HoloClean
// (statistical candidate-repair inference). DESIGN.md §3 records how each
// simplification preserves the behaviour the paper measures.
package clean

import "repro/internal/data"

// Cleaner repairs a relation and returns a cleaned copy; the input is
// never modified.
type Cleaner interface {
	// Clean returns a repaired copy of rel.
	Clean(rel *data.Relation) (*data.Relation, error)
}

package clean

import (
	"repro/internal/data"
	"repro/internal/dc"
)

// Holistic reproduces the denial-constraint cleaner of Chu et al. [17]:
// denial constraints are first discovered from the data (as in FASTDC
// [16], here via the internal/dc engine) and violations are then repaired
// with minimal value changes. Discovered constraints are per-attribute
// range DCs and, optionally, bounded-slope pair DCs (the "walking speed"
// constraint of §5). As the paper discusses, constraints weak enough to
// hold on the dirty data miss small in-range errors — the characteristic
// under-cleaning of Holistic.
type Holistic struct {
	// TrimFrac is the fraction trimmed from each tail when discovering
	// the constraints (default 0.005, i.e. the 0.5%/99.5% quantiles).
	TrimFrac float64
	// Slopes additionally discovers bounded-slope pair constraints,
	// suited to sequence-like data (GPS trajectories).
	Slopes bool
}

// Clean implements Cleaner.
func (h *Holistic) Clean(rel *data.Relation) (*data.Relation, error) {
	trim := h.TrimFrac
	if trim <= 0 || trim >= 0.5 {
		trim = 0.005
	}
	if rel.N() == 0 {
		return rel.Clone(), nil
	}
	set := dc.Discover(rel, dc.DiscoverConfig{TrimFrac: trim, Slopes: h.Slopes})
	return set.Repair(rel), nil
}

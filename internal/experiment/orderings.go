package experiment

import (
	"errors"
	"fmt"

	"repro/internal/topology"
)

// Ordering is one asserted relation between two ablation rows: the row
// named Before must finish in no more (strictly less, when Strict) simulated
// time than the row named After.
type Ordering struct {
	Before, After string
	Strict        bool
}

// String renders the relation, e.g. "rack/rack-aware < rack/flat".
func (o Ordering) String() string {
	op := "<="
	if o.Strict {
		op = "<"
	}
	return fmt.Sprintf("%s %s %s", o.Before, op, o.After)
}

// CheckOrderings verifies every asserted ordering against a set of ablation
// rows and returns the joined violations (nil when all hold). A relation
// whose rows are missing is itself a violation: a renamed arm must not
// silently disable its assertion.
func CheckOrderings(rows []AblationRow, orderings []Ordering) error {
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Name] = r.Seconds
	}
	var errs []error
	for _, o := range orderings {
		before, okB := byName[o.Before]
		after, okA := byName[o.After]
		if !okB || !okA {
			errs = append(errs, fmt.Errorf("ordering %q: missing row (have %v)", o, names(rows)))
			continue
		}
		if (o.Strict && !(before < after)) || (!o.Strict && before > after) {
			errs = append(errs, fmt.Errorf("ordering %q violated: %.6fs vs %.6fs", o, before, after))
		}
	}
	return errors.Join(errs...)
}

func names(rows []AblationRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Name
	}
	return out
}

// SimCycles converts a simulated-seconds figure to cycles of the default
// simulated clock, the unit the machine model accumulates internally. Every
// experiment builds its machines with the default attributes, so this is the
// exact inverse of numasim.Machine.CyclesToSeconds for the reported rows.
func SimCycles(seconds float64) float64 {
	return seconds * topology.DefaultAttrs().ClockHz
}

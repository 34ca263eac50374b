package livestore

import (
	"fmt"

	"geosel/internal/geo"
)

// Op identifies one kind of mutation.
type Op uint8

// Supported mutation kinds.
const (
	// OpInsert adds a new object (or updates one when the external ID is
	// already live — upsert semantics, so ingest is idempotent under
	// at-least-once delivery).
	OpInsert Op = iota + 1
	// OpUpdate replaces the object with the given external ID; a missing
	// ID is counted in Outcome.Missed and skipped.
	OpUpdate
	// OpDelete removes the object with the given external ID; a missing
	// ID is counted in Outcome.Missed and skipped.
	OpDelete
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ParseOp converts the wire name of a mutation kind.
func ParseOp(s string) (Op, error) {
	switch s {
	case "insert":
		return OpInsert, nil
	case "update":
		return OpUpdate, nil
	case "delete":
		return OpDelete, nil
	default:
		return 0, fmt.Errorf("livestore: unknown mutation op %q (want insert, update or delete)", s)
	}
}

// Mutation is one change to the object set, keyed by the object's
// external ID (geodata.Object.ID). Loc, Weight and Text are ignored for
// deletes.
type Mutation struct {
	Op     Op
	ID     int
	Loc    geo.Point
	Weight float64
	Text   string
}

// Validate checks one mutation against the geodata value contract
// (weights in [0, 1], finite locations); Apply runs it on every
// mutation before anything is committed.
func (m Mutation) Validate() error {
	switch m.Op {
	case OpDelete:
		return nil
	case OpInsert, OpUpdate:
		if m.Weight < 0 || m.Weight > 1 || m.Weight != m.Weight {
			return fmt.Errorf("livestore: %v id %d has weight %v outside [0,1]", m.Op, m.ID, m.Weight)
		}
		if !finite(m.Loc.X) || !finite(m.Loc.Y) {
			return fmt.Errorf("livestore: %v id %d has non-finite location %v", m.Op, m.ID, m.Loc)
		}
		return nil
	default:
		return fmt.Errorf("livestore: invalid mutation op %d for id %d", int(m.Op), m.ID)
	}
}

func finite(x float64) bool {
	return x == x && x < 1e308 && x > -1e308
}

// Outcome reports what one committed batch did, mutation by mutation.
type Outcome struct {
	// Inserted counts fresh external IDs added.
	Inserted int
	// Updated counts live IDs replaced (including OpInsert upserts).
	Updated int
	// Deleted counts live IDs removed.
	Deleted int
	// Missed counts updates/deletes whose ID was not live; they are
	// skipped, not errors, so replayed traces stay idempotent.
	Missed int
}

// add accumulates another outcome.
func (o *Outcome) add(p Outcome) {
	o.Inserted += p.Inserted
	o.Updated += p.Updated
	o.Deleted += p.Deleted
	o.Missed += p.Missed
}

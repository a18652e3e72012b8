package scooter

import (
	"errors"
	"testing"

	"scooter/internal/migrate"
	"scooter/internal/store"
)

// failSpecAppends is a durability layer that loses exactly the writes to
// the published specification and logs everything else.
type failSpecAppends struct{}

var errSpecLost = errors.New("spec record lost")

func (failSpecAppends) Append(m store.Mutation) store.WaitFunc {
	if m.Coll != migrate.SpecCollection {
		return nil
	}
	return func() error { return errSpecLost }
}

// TestMigrateFailsWhenSpecNotDurable is the regression for a dropped
// `$spec` write error: a migration whose data and journal are durable but
// whose published spec is not must fail, because a follower replaying the
// log would enforce the stale spec and no later replay rewrites it.
func TestMigrateFailsWhenSpecNotDurable(t *testing.T) {
	const script = `
AddStaticPrincipal(Unauthenticated);
CreateModel(@principal User {
  create: _ -> [Unauthenticated],
  delete: none,
  name: String { read: public, write: none },
});
`
	w := NewWorkspace()
	w.db.SetDurability(failSpecAppends{})
	if _, err := w.MigrateNamed("001_init", script); !errors.Is(err, errSpecLost) {
		t.Fatalf("MigrateNamed with a lost spec write: err = %v, want %v", err, errSpecLost)
	}
}

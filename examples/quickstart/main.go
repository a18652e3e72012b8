// Quickstart: declare a model with policies, migrate, and watch the
// verifier reject an unsafe change — the complete Scooter & Sidecar loop
// in one file.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"scooter"
)

func main() {
	w := scooter.NewWorkspace()

	// 1. Bootstrap the schema. Everything goes through migrations — there
	// is no separate schema file to hand-edit. Each migration is named and
	// journaled, so it runs exactly once.
	_, err := w.MigrateNamed("001_users", `
AddStaticPrincipal(Unauthenticated);
CreateModel(@principal User {
  create: _ -> [Unauthenticated],
  delete: none,
  name:  String { read: public,   write: u -> [u] },
  email: String { read: u -> [u], write: u -> [u] },
});
`)
	must(err)
	fmt.Println("schema after bootstrap:")
	fmt.Println(w.SpecText())

	// 2. Use the policy-enforcing ORM. Reads strip fields the principal
	// may not see; writes are rejected with a policy error.
	anon := w.AsPrinc(scooter.Static("Unauthenticated"))
	aliceID, err := anon.Insert("User", scooter.Doc{"name": "alice", "email": "alice@example.com"})
	must(err)
	bobID, err := anon.Insert("User", scooter.Doc{"name": "bob", "email": "bob@example.com"})
	must(err)

	bob := w.AsPrinc(scooter.Instance("User", bobID))
	obj, err := bob.FindByID("User", aliceID)
	must(err)
	name, _ := obj.Get("name")
	_, canSeeEmail := obj.Get("email")
	fmt.Printf("bob reads alice: name=%v, email visible=%v\n\n", name, canSeeEmail)

	// 3. An unsafe migration: copying the private email into a public
	// display field. Sidecar rejects it before anything executes and
	// prints a witness database.
	_, err = w.MigrateNamed("002_display_name", `
User::AddField(displayName : String {
  read: public,
  write: u -> [u]
}, u -> u.name + " <" + u.email + ">");
`)
	fmt.Println("unsafe migration rejected:")
	fmt.Println(err)

	// 4. The fixed migration verifies and executes: existing rows are
	// populated by the initialiser. A rejected script was never journaled,
	// so the fix reuses its name.
	_, err = w.MigrateNamed("002_display_name", `
User::AddField(displayName : String {
  read: public,
  write: u -> [u]
}, u -> u.name);
`)
	must(err)
	obj, err = bob.FindByID("User", aliceID)
	must(err)
	display, _ := obj.Get("displayName")
	fmt.Printf("\nafter the fixed migration, alice's displayName = %v\n", display)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// Chitter: the paper's running example (§2), end to end. The app stores
// public 42-character peeps next to sensitive user data, and both of the
// paper's unsafe migrations — the bio schema migration that leaks pronouns
// and the moderator policy migration that opens bios to everyone — are
// rejected by Sidecar with counterexamples before they can run.
//
//	go run ./examples/chitter
package main

import (
	"errors"
	"fmt"
	"log"

	"scooter"
)

func main() {
	w := scooter.NewWorkspace()

	// The Chitter schema of Figure 1, built through a named (journaled)
	// migration.
	_, err := w.MigrateNamed("001_chitter", `
AddStaticPrincipal(Unauthenticated);
CreateModel(@principal User {
  create: _ -> [Unauthenticated],
  delete: none,
  name: String {
    read: public,
    write: u -> [u] + User::Find({isAdmin: true}) },
  email: String {
    read: u -> [u] + User::Find({isAdmin: true}),
    write: u -> [u] + User::Find({isAdmin: true}) },
  pronouns: String {
    read: u -> [u] + u.followers,
    write: u -> [u] + User::Find({isAdmin: true}) },
  isAdmin: Bool {
    read: u -> [u] + User::Find({isAdmin: true}),
    write: u -> User::Find({isAdmin: true}) },
  followers: Set(Id(User)) {
    read: u -> [u] + u.followers,
    write: u -> [u] + User::Find({isAdmin: true}) },
});
CreateModel(Peep {
  create: p -> [p.author],
  delete: p -> [p.author] + User::Find({isAdmin: true}),
  author: Id(User) { read: public, write: none },
  body: String { read: public, write: p -> [p.author] },
});
`)
	must(err)

	seedUsers(w)

	// ---- §2.1: the unsafe schema migration ----
	fmt.Println("== bio migration that leaks pronouns ==")
	_, err = w.MigrateNamed("002_bio", `
User::AddField(bio : String {
  read: public,
  write: u -> [u] + User::Find({isAdmin:true})
}, u -> "I'm " + u.name + "(" + u.pronouns + ")");
`)
	var unsafeErr *scooter.UnsafeError
	if !errors.As(err, &unsafeErr) {
		log.Fatalf("expected the verifier to reject the migration, got %v", err)
	}
	fmt.Println(unsafeErr)

	// A rejected script was never journaled, so the fix reuses its name.
	fmt.Println("== fixed bio migration (no pronouns) ==")
	_, err = w.MigrateNamed("002_bio", `
User::AddField(bio : String {
  read: public,
  write: u -> [u] + User::Find({isAdmin:true})
}, u -> "I'm " + u.name);
`)
	must(err)
	fmt.Println("accepted; existing rows populated")

	// ---- §2.2: the unsafe policy migration ----
	fmt.Println("\n== moderator migration with the >= 0 typo ==")
	_, err = w.MigrateNamed("003_moderators", `
User::AddField(
  adminLevel : I64 {
    read: u -> [u] + User::Find({adminLevel: 2}),
    write: u -> User::Find({adminLevel: 2})
  }, u -> if u.isAdmin then 2 else 0);
User::UpdateFieldPolicy(email, {
  read: u -> [u] + User::Find({adminLevel: 2}),
  write: u -> [u] + User::Find({adminLevel: 2})
});
User::UpdateFieldWritePolicy(bio,
  u -> [u] + User::Find({adminLevel >= 0}));
`)
	if !errors.As(err, &unsafeErr) {
		log.Fatalf("expected the verifier to reject the migration, got %v", err)
	}
	fmt.Println(unsafeErr)

	fmt.Println("== moderator migration with an explicit, audited weakening ==")
	_, err = w.MigrateNamed("003_moderators", `
User::AddField(
  adminLevel : I64 {
    read: u -> [u] + User::Find({adminLevel: 2}),
    write: u -> User::Find({adminLevel: 2})
  }, u -> if u.isAdmin then 2 else 0);
User::UpdateFieldPolicy(email, {
  read: u -> [u] + User::Find({adminLevel: 2}),
  write: u -> [u] + User::Find({adminLevel: 2})
});
User::WeakenFieldWritePolicy(bio,
  u -> [u] + User::Find({adminLevel > 0}),
  "Reason: allow moderators to update bios.");
User::UpdateFieldWritePolicy(name, u -> [u] + User::Find({adminLevel: 2}));
User::UpdateFieldWritePolicy(pronouns, u -> [u] + User::Find({adminLevel: 2}));
User::UpdateFieldWritePolicy(followers, u -> [u] + User::Find({adminLevel: 2}));
Peep::UpdatePolicy(delete, p -> [p.author] + User::Find({adminLevel: 2}));
User::RemoveField(isAdmin);
`)
	must(err)
	fmt.Println("accepted; isAdmin replaced by adminLevel via prior definitions (§4):")
	fmt.Println("every rewritten policy was proven equivalent to its isAdmin form")
	fmt.Println("\nfinal specification:")
	fmt.Println(w.SpecText())
}

func seedUsers(w *scooter.Workspace) {
	anon := w.AsPrinc(scooter.Static("Unauthenticated"))
	mk := func(name string, admin bool) scooter.ID {
		id, err := anon.Insert("User", scooter.Doc{
			"name": name, "email": name + "@chitter.io", "pronouns": "they/them",
			"isAdmin": admin, "followers": []scooter.Value{},
		})
		must(err)
		return id
	}
	alice := mk("alice", false)
	bob := mk("bob", false)
	mk("root", true)

	// Bob posts a peep and follows alice.
	bobP := w.AsPrinc(scooter.Instance("User", bob))
	if _, err := bobP.Insert("Peep", scooter.Doc{"author": bob, "body": "hello chitter"}); err != nil {
		log.Fatal(err)
	}
	aliceP := w.AsPrinc(scooter.Instance("User", alice))
	must(aliceP.Update("User", alice, scooter.Doc{"followers": []scooter.Value{bob}}))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

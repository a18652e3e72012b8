package specfmt

import "testing"

// FuzzSpecRoundTrip: followers and restarts re-parse the printed $spec,
// so for every text Parse accepts, Format must print a spec that parses
// again and prints identically (Format → Parse → Format is a fixpoint).
func FuzzSpecRoundTrip(f *testing.F) {
	seeds := []string{
		"",
		"@static-principal\nAdmin\n",
		"M { create: public, delete: none }",
		`@principal
User {
  create: public,
  delete: none,
  name: String { read: public, write: u -> [u] },
  age: I64 { read: public, write: u -> User::Find({age >= -3}).map(x -> x.id) },
  height: F64 { read: u -> [u], write: none },
  joined: DateTime { read: public, write: u -> User::Find({joined < d1-1-2020-00:00:00}).map(x -> x.id) },
  boss: Option(Id(User)) { read: public, write: u -> match u.boss as b in [b] else [u] },
  friends: Set(Id(User)) { read: u -> [u] + u.friends, write: u -> [u] },
  bio: String { read: u -> if u.age > 17 then public else [u], write: u -> [u] }}`,
		"M { create: public, delete: none, s: String { read: public, write: none }, t: Set(String) { read: public, write: none }}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(s)
		s2, err := Parse(text)
		if err != nil {
			t.Fatalf("printed spec does not parse: %v\n%s", err, text)
		}
		if again := Format(s2); again != text {
			t.Fatalf("print → parse → print is not a fixpoint:\n%s\nvs\n%s", text, again)
		}
	})
}

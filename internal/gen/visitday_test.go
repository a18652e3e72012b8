package gen_test

import (
	"os"
	"path/filepath"
	"testing"

	"scooter/internal/casestudies"
	"scooter/internal/gen"
)

// TestVisitdayModelsAreCurrent regenerates the typed ORM of the Visit Days
// history and compares it with the committed examples/visitday/models, so
// a change to the generator or to the history cannot leave the example
// stale. Regenerate with `scooter gen` on the study's final spec.
func TestVisitdayModelsAreCurrent(t *testing.T) {
	studies, err := casestudies.Studies()
	if err != nil {
		t.Fatal(err)
	}
	var study *casestudies.Study
	for _, st := range studies {
		if st.Name == "Visit Days" {
			study = st
		}
	}
	if study == nil {
		t.Fatal("no Visit Days study in the corpus")
	}
	s, _, err := study.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := gen.Generate(s, "models")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "examples", "visitday", "models", "models.go")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s is stale: regenerate it from the Visit Days history", path)
	}
}

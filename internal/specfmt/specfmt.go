// Package specfmt reads and writes Scooter_p source text — the
// authoritative specification file that Scooter maintains automatically as
// migrations run (paper §3). Format renders a schema and Parse reads one
// back; the output of Format round-trips through Parse.
package specfmt

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"scooter/internal/ast"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/typer"
)

// Parse is the inverse of Format: it parses spec text into a schema and
// type-checks it. Empty text is the empty spec.
func Parse(src string) (*schema.Schema, error) {
	f, err := parser.ParsePolicyFile(src)
	if err != nil {
		return nil, err
	}
	s := schema.FromPolicyFile(f)
	if err := typer.New(s).CheckSchema(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load parses the spec file at path. A missing file is the empty spec, so
// the first migration of a project can bootstrap it.
func Load(path string) (*schema.Schema, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return schema.New(), nil
	}
	if err != nil {
		return nil, err
	}
	s, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Format renders the schema as a Scooter_p policy file.
func Format(s *schema.Schema) string {
	var sb strings.Builder
	for _, st := range s.Statics {
		fmt.Fprintf(&sb, "@static-principal\n%s\n\n", st)
	}
	for _, m := range s.Models {
		writeModel(&sb, m)
		sb.WriteString("\n")
	}
	return sb.String()
}

func writeModel(sb *strings.Builder, m *schema.Model) {
	if m.Principal {
		sb.WriteString("@principal\n")
	}
	fmt.Fprintf(sb, "%s {\n", m.Name)
	fmt.Fprintf(sb, "  create: %s,\n", formatPolicy(m.Create))
	fmt.Fprintf(sb, "  delete: %s", formatPolicy(m.Delete))
	for _, f := range m.Fields {
		sb.WriteString(",\n")
		fmt.Fprintf(sb, "  %s: %s {\n", f.Name, f.Type)
		fmt.Fprintf(sb, "    read: %s,\n", formatPolicy(f.Read))
		fmt.Fprintf(sb, "    write: %s\n", formatPolicy(f.Write))
		sb.WriteString("  }")
	}
	sb.WriteString("\n}\n")
}

func formatPolicy(p ast.Policy) string {
	return p.String()
}

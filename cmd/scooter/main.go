// Command scooter is the Scooter migration tool: it verifies migration
// scripts against the authoritative policy specification (via the Sidecar
// verifier), maintains the specification file as migrations apply,
// generates the typed Go ORM, and bridges annotated Go codebases onto the
// verified-migration pipeline.
//
// Usage:
//
//	scooter verify         -spec policy.scp migration.scm...
//	scooter migrate        -spec policy.scp migration.scm...
//	scooter gen            -spec policy.scp -pkg mypkg [-o orm.go]
//	scooter fmt            -spec policy.scp
//	scooter report         fig5
//	scooter struct2schema  -input ./models [-o spec.scp]
//	scooter makemigration  -from old.scp (-to new.scp | -against-structs ./models) [-compare ref.scm] [-o out.scm]
//	scooter equivcheck     -from policy.scp a.scm b.scm
//
// verify checks scripts without applying them. migrate verifies, then
// rewrites the spec file to reflect the migration (creating it on first
// use). gen emits the typed ORM package. fmt canonicalises a spec file.
// report regenerates the paper's Figure 5 expressiveness table from the
// embedded case-study corpus.
//
// struct2schema scans a Go package tree for annotated structs and derives
// a canonical specification (see internal/structspec for the annotation
// grammar); the output is byte-stable, so re-running it on an unchanged
// tree never dirties the spec file.
//
// makemigration synthesizes a candidate migration script from the
// difference between two specifications — the current one (-from; a
// missing file means the empty spec, so the first run bootstraps a
// project) and the target, either a spec file (-to) or a Go tree imported
// on the fly (-against-structs). The candidate is verified by Sidecar
// before it is reported as usable: synthesis proposes, Sidecar disposes.
// Decisions the differ refuses to guess (possible renames, fields with no
// synthesizable initialiser) are reported as explicit ambiguities in the
// generated script's header comments. -no-verify skips only the proofs,
// never the structural self-check. -compare additionally proves the
// synthesized candidate observationally equivalent to a handwritten
// reference script (bounded; see equivcheck below).
//
// equivcheck proves two migration scripts over the same source spec
// observationally equivalent for every document universe up to -bound
// (default 2) documents per relevant collection: equal final schemas,
// extensionally equal policies (discharged by the SMT strictness checker
// in both directions), and canonically equal stores under differential
// replay. On failure it prints the first diverging collection/field and
// the seeded store witnessing the divergence. -verdict-db persists the
// policy proofs in the same store as sidecar's strictness proofs; the
// report itself is not stored, and a re-run replays the data phase and
// prints the same report.
//
// Exit status is 0 on success (makemigration: synthesized and proved, or
// no changes; equivcheck: proved equivalent), 1 on a violation, an
// unprovable/incomplete synthesized script, or an equivalence
// counterexample, 2 on usage or parse errors, and 3 when a proof is
// inconclusive (solver budget or universe cap exhausted).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"scooter/internal/ast"
	"scooter/internal/casestudies"
	"scooter/internal/equivcheck"
	"scooter/internal/migrate"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/specdiff"
	"scooter/internal/specfmt"
	"scooter/internal/structspec"
	"scooter/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind the process boundary: it dispatches the
// subcommand and returns the exit code. Tests call it in-process to assert
// the exit-code contract without a subprocess per flag combination.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "verify":
		return cmdVerify(rest, false, stdout, stderr)
	case "migrate":
		return cmdVerify(rest, true, stdout, stderr)
	case "gen":
		return cmdGen(rest, stdout, stderr)
	case "fmt":
		return cmdFmt(rest, stderr)
	case "report":
		return cmdReport(rest, stdout, stderr)
	case "struct2schema":
		return cmdStruct2Schema(rest, stdout, stderr)
	case "makemigration":
		return cmdMakeMigration(rest, stdout, stderr)
	case "equivcheck":
		return cmdEquivCheck(rest, stdout, stderr)
	case "-h", "--help", "help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "scooter: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  scooter verify         -spec policy.scp migration.scm...
  scooter migrate        -spec policy.scp migration.scm...
  scooter gen            -spec policy.scp -pkg name [-o file.go]
  scooter fmt            -spec policy.scp
  scooter report         fig5
  scooter struct2schema  -input ./models [-o spec.scp]
  scooter makemigration  -from old.scp (-to new.scp | -against-structs ./models) [-compare ref.scm] [-o out.scm]
  scooter equivcheck     -from policy.scp a.scm b.scm
`)
}

// fail prints a runtime error and returns the generic failure code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "scooter: %v\n", err)
	return 1
}

func cmdVerify(args []string, apply bool, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "policy.scp", "authoritative specification file")
	noEquiv := fs.Bool("no-equivalences", false, "disable prior-definition tracking (§6.4)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		return fail(stderr, fmt.Errorf("no migration scripts given"))
	}
	s, err := specfmt.Load(*specPath)
	if err != nil {
		return fail(stderr, err)
	}
	opts := migrate.DefaultOptions()
	opts.TrackEquivalences = !*noEquiv
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return fail(stderr, err)
		}
		script, err := parser.ParseMigration(string(data))
		if err != nil {
			return fail(stderr, fmt.Errorf("%s: %w", path, err))
		}
		plan, err := migrate.Verify(s, script, opts)
		if err != nil {
			return fail(stderr, fmt.Errorf("%s: %w", path, err))
		}
		fmt.Fprintf(stdout, "%s: OK (%d commands", path, len(plan.Reports))
		weakened := 0
		for _, r := range plan.Reports {
			if r.Weakened {
				weakened++
			}
		}
		if weakened > 0 {
			fmt.Fprintf(stdout, ", %d explicit weakenings", weakened)
		}
		fmt.Fprintln(stdout, ")")
		s = plan.After
	}
	if apply {
		if err := os.WriteFile(*specPath, []byte(specfmt.Format(s)), 0o644); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "updated %s\n", *specPath)
	}
	return 0
}

func cmdGen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "policy.scp", "authoritative specification file")
	pkg := fs.String("pkg", "models", "generated package name")
	out := fs.String("o", "", "output file (stdout if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := specfmt.Load(*specPath)
	if err != nil {
		return fail(stderr, err)
	}
	src, err := generateORM(s, *pkg)
	if err != nil {
		return fail(stderr, err)
	}
	if *out == "" {
		fmt.Fprint(stdout, src)
		return 0
	}
	if err := os.WriteFile(*out, []byte(src), 0o644); err != nil {
		return fail(stderr, err)
	}
	return 0
}

func cmdFmt(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("fmt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "policy.scp", "authoritative specification file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := specfmt.Load(*specPath)
	if err != nil {
		return fail(stderr, err)
	}
	if err := os.WriteFile(*specPath, []byte(specfmt.Format(s)), 0o644); err != nil {
		return fail(stderr, err)
	}
	return 0
}

func cmdReport(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 || args[0] != "fig5" {
		fmt.Fprintln(stderr, "scooter: report: only 'fig5' is supported")
		return 2
	}
	rows, err := casestudies.Metrics()
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprint(stdout, casestudies.FormatFigure5(rows))
	return 0
}

// importStructs runs the struct2schema importer and surfaces its report on
// stderr, warnings included, so narrowings are never silent.
func importStructs(dir string, stderr io.Writer) (*schema.Schema, error) {
	s, rep, err := structspec.Import(dir)
	if err != nil {
		return nil, err
	}
	for _, w := range rep.Warnings {
		fmt.Fprintf(stderr, "scooter: warning: %s\n", w)
	}
	fmt.Fprintf(stderr, "scooter: imported %d models, %d fields, %d static principals from %d files\n",
		rep.Models, rep.Fields, rep.Statics, rep.Files)
	return s, nil
}

func cmdStruct2Schema(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("struct2schema", flag.ContinueOnError)
	fs.SetOutput(stderr)
	input := fs.String("input", "", "Go package tree to scan for annotated structs")
	out := fs.String("o", "", "output spec file (stdout if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *input == "" || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "scooter: struct2schema needs -input DIR and takes no positional arguments")
		return 2
	}
	s, err := importStructs(*input, stderr)
	if err != nil {
		return fail(stderr, err)
	}
	text := specfmt.Format(s)
	// Byte-stability gate: the formatted output must re-parse, re-check,
	// and re-format to the identical bytes. Machine-generated specs are
	// exactly where a formatter bug would silently corrupt the pipeline.
	s2, err := specfmt.Parse(text)
	if err != nil {
		return fail(stderr, fmt.Errorf("internal: generated spec does not re-parse and re-check: %w", err))
	}
	if text2 := specfmt.Format(s2); text2 != text {
		return fail(stderr, fmt.Errorf("internal: generated spec is not format-stable"))
	}
	if *out == "" {
		fmt.Fprint(stdout, text)
		return 0
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stderr, "scooter: wrote %s\n", *out)
	return 0
}

// loadScript reads and parses one migration script.
func loadScript(path string) (*ast.MigrationScript, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	script, err := parser.ParseMigration(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return script, nil
}

// equivExit maps an equivalence report onto the exit-code convention:
// proved 0, counterexample 1, inconclusive 3.
func equivExit(rep *equivcheck.Report) int {
	switch rep.Verdict {
	case equivcheck.Equivalent:
		return 0
	case equivcheck.NotEquivalent:
		return 1
	default:
		return 3
	}
}

func cmdEquivCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("equivcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	from := fs.String("from", "", "source specification both scripts start from")
	bound := fs.Int("bound", equivcheck.DefaultBound, "max documents per relevant collection")
	maxUniverses := fs.Int("max-universes", equivcheck.DefaultMaxUniverses, "cap on document universes to replay (exceeding it is inconclusive)")
	solverRounds := fs.Int("solver-rounds", 0, "SMT budget per policy proof (0 = default)")
	verdictDB := fs.String("verdict-db", "", "persist policy proofs in this store (shared with sidecar proofs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *from == "" {
		fmt.Fprintln(stderr, "scooter: equivcheck needs -from SPEC")
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintf(stderr, "scooter: equivcheck takes exactly 2 script(s) (%d given)\n", fs.NArg())
		return 2
	}
	spec, err := specfmt.Load(*from)
	if err != nil {
		return fail(stderr, err)
	}
	opts := equivcheck.Options{
		Bound:        *bound,
		MaxUniverses: *maxUniverses,
		SolverRounds: *solverRounds,
		Cache:        verify.NewCache(0),
	}
	if *verdictDB != "" {
		vdb, err := verify.OpenVerdictDB(*verdictDB)
		if err != nil {
			return fail(stderr, err)
		}
		defer func() {
			if cerr := vdb.Close(); cerr != nil {
				fmt.Fprintf(stderr, "scooter: verdict store: %v\n", cerr)
			}
		}()
		opts.Cache = vdb
	}

	aPath, bPath := fs.Arg(0), fs.Arg(1)
	a, err := loadScript(aPath)
	if err != nil {
		return fail(stderr, err)
	}
	b, err := loadScript(bPath)
	if err != nil {
		return fail(stderr, err)
	}
	rep, err := equivcheck.Check(spec, aPath, a, bPath, b, opts)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprint(stdout, rep.Format())
	return equivExit(rep)
}

func cmdMakeMigration(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("makemigration", flag.ContinueOnError)
	fs.SetOutput(stderr)
	from := fs.String("from", "", "current spec file (missing file = empty spec, bootstraps a project)")
	to := fs.String("to", "", "target spec file")
	againstStructs := fs.String("against-structs", "", "derive the target spec from this Go package tree instead of -to")
	out := fs.String("o", "", "output migration script (stdout if empty)")
	noVerify := fs.Bool("no-verify", false, "skip Sidecar proofs on the synthesized script (structural self-check still runs)")
	compare := fs.String("compare", "", "prove the synthesized script equivalent to this handwritten reference script")
	bound := fs.Int("bound", equivcheck.DefaultBound, "equivalence bound for -compare (documents per relevant collection)")
	maxUniverses := fs.Int("max-universes", equivcheck.DefaultMaxUniverses, "universe cap for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *from == "" || (*to == "") == (*againstStructs == "") || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "scooter: makemigration needs -from SPEC and exactly one of -to SPEC / -against-structs DIR")
		return 2
	}
	fromSpec, err := specfmt.Load(*from)
	if err != nil {
		return fail(stderr, err)
	}
	var toSpec *schema.Schema
	if *againstStructs != "" {
		toSpec, err = importStructs(*againstStructs, stderr)
	} else {
		toSpec, err = specfmt.Load(*to)
	}
	if err != nil {
		return fail(stderr, err)
	}

	res, err := specdiff.Diff(fromSpec, toSpec)
	if err != nil {
		return fail(stderr, err)
	}
	for _, a := range res.Ambiguities {
		fmt.Fprintf(stderr, "scooter: ambiguity: %s\n", a)
	}
	if len(res.Commands) == 0 && res.Complete {
		fmt.Fprintln(stdout, "no changes")
		return 0
	}
	text := res.Script()
	write := func() int {
		if *out == "" {
			fmt.Fprint(stdout, text)
			return 0
		}
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "scooter: wrote %s\n", *out)
		return 0
	}
	if !res.Complete {
		// The candidate cannot converge; emit it as a starting point for
		// hand-editing but fail loudly.
		if code := write(); code != 0 {
			return code
		}
		fmt.Fprintln(stderr, "scooter: synthesis incomplete — finish the script by hand (see ambiguities above)")
		return 1
	}

	if !*noVerify {
		// Verify what will actually be read back from disk: parse the
		// rendered text, not the in-memory commands.
		script, err := parser.ParseMigration(text)
		if err != nil {
			return fail(stderr, fmt.Errorf("internal: synthesized script does not re-parse: %w", err))
		}
		if _, err := migrate.Verify(fromSpec, script, migrate.DefaultOptions()); err != nil {
			var uerr *migrate.UnsafeError
			if errors.As(err, &uerr) {
				// Still write the candidate: it never applies unproven,
				// and the text is the starting point for a human fix.
				if code := write(); code != 0 {
					return code
				}
				if uerr.Result != nil && uerr.Result.Verdict == verify.Inconclusive {
					fmt.Fprintf(stdout, "UNKNOWN\n%v\n", uerr)
					return 3
				}
				fmt.Fprintf(stdout, "UNSAFE\n%v\n", uerr)
				return 1
			}
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "scooter: sidecar verified %d commands\n", len(res.Commands))
	}

	if *compare != "" {
		// Prove the synthesized candidate observationally equivalent to the
		// handwritten reference — again against the rendered text, since
		// that is what will be read back from disk.
		candidate, err := parser.ParseMigration(text)
		if err != nil {
			return fail(stderr, fmt.Errorf("internal: synthesized script does not re-parse: %w", err))
		}
		ref, err := loadScript(*compare)
		if err != nil {
			return fail(stderr, err)
		}
		rep, err := equivcheck.Check(fromSpec, "synthesized", candidate, *compare, ref,
			equivcheck.Options{Bound: *bound, MaxUniverses: *maxUniverses, Cache: verify.NewCache(0)})
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprint(stdout, rep.Format())
		if code := equivExit(rep); code != 0 {
			// Still write the candidate: the text is the starting point for
			// reconciling the two scripts.
			if wcode := write(); wcode != 0 {
				return wcode
			}
			return code
		}
	}
	return write()
}

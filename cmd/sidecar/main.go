// Command sidecar is the standalone verifier: it checks a migration script
// against a specification and reports either success or a counterexample,
// without ever touching data. Use it in CI to gate migrations.
//
// Usage:
//
//	sidecar -spec policy.scp migration.scm...
//	sidecar -spec policy.scp -check-strictness MODEL OLD_POLICY NEW_POLICY
//	sidecar -apply -data-dir DIR migration.scm...
//
// -apply additionally executes the scripts against the write-ahead-logged
// store in -data-dir, journalling per-command progress: scripts already
// applied are skipped, and a migration interrupted by a crash resumes at
// its first unapplied command on the next run. The scripts listed must be
// the full history in order (the specification is reconstructed by
// replaying them). -fsync selects the log's durability mode.
//
// -online makes -apply run backfills in bounded batches with per-document
// watermark checkpoints, so a crash resumes mid-collection and concurrent
// readers of the store are never blocked for longer than one batch;
// -batch-size bounds each batch and -rate caps backfill throughput in
// documents per second.
//
// -solver-rounds tunes the per-query SMT round budget, -cache-size bounds
// the verdict cache shared across all scripts on the command line (0
// disables it), and -stats prints store/solver counters on exit.
//
// -trace FILE writes one JSON event per strictness proof (fingerprint,
// verdict, cache hit, solver counters, duration). Tracing forces proofs to
// run sequentially so the event order is deterministic: two runs over the
// same scripts produce identical traces modulo the duration_ns field.
//
// -verdict-db FILE backs the verdict store with a file, so verdicts persist
// across runs (and across machines that share the file): verdicts proved
// once are looked up by the query's alpha-invariant fingerprint,
// counterexamples included, so a warm replay prints byte-identical output
// without solving. A stored verdict answers under any budget: a proof that
// finished under the default -solver-rounds answers a later run with
// -solver-rounds 1, and inconclusive results are never stored. The
// file-backed store is used instead of a -cache-size one and, like it,
// keeps a bounded number of verdicts in memory. A truncated or damaged
// file degrades to a cold start, never an error.
//
// -timeout bounds the whole run and -proof-timeout bounds each strictness
// proof (one budget for all principal kinds of that proof, which are
// proved one after another). An exhausted budget is never an error: the
// affected proof reports UNKNOWN with the reason (deadline, solver round
// cap, ...) and the process exits 3 so CI can distinguish "retry with a
// larger budget" from a real violation. Interrupting the run (Ctrl-C)
// degrades the same way.
//
// Exit status is 0 when every check passes, 1 on a violation (the
// counterexample is printed), 2 on usage or parse errors, and 3 when a
// proof is inconclusive (budget exhausted or undecidable fragment).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"

	"scooter"
	"scooter/internal/ast"
	"scooter/internal/migrate"
	"scooter/internal/obs"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/smt/limits"
	"scooter/internal/specfmt"
	"scooter/internal/typer"
	"scooter/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind the process boundary: it parses args,
// performs the requested checks, and returns the exit code. Tests call it
// in-process to assert the exit-code contract without a subprocess per
// flag combination.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sidecar", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "policy.scp", "authoritative specification file")
	strictness := fs.Bool("check-strictness", false, "compare two policies instead of verifying scripts")
	noEquiv := fs.Bool("no-equivalences", false, "disable prior-definition tracking (§6.4)")
	solverRounds := fs.Int("solver-rounds", 0, "per-query SMT round budget (0 = default)")
	solverConflicts := fs.Int64("solver-conflicts", 0, "per-query SAT conflict budget (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
	proofTimeout := fs.Duration("proof-timeout", 0, "wall-clock budget per strictness proof (0 = none)")
	cacheSize := fs.Int("cache-size", verify.DefaultCacheCapacity, "verdict cache capacity; 0 disables caching")
	showStats := fs.Bool("stats", false, "print verification statistics on exit")
	tracePath := fs.String("trace", "", "write one JSON event per strictness proof to this file (forces sequential proofs)")
	verdictDB := fs.String("verdict-db", "", "persistent verdict store file shared across runs (created if absent)")
	applyMode := fs.Bool("apply", false, "verify and durably apply the scripts against the store in -data-dir")
	dataDir := fs.String("data-dir", "", "write-ahead log directory for -apply")
	fsyncMode := fs.String("fsync", "always", "fsync policy for -apply: always, batch, or never")
	online := fs.Bool("online", false, "apply backfills in batched, resumable steps so live traffic interleaves (requires -apply)")
	batchSize := fs.Int("batch-size", 0, "documents per online backfill batch (0 = default)")
	rate := fs.Int("rate", 0, "online backfill throughput cap in documents/second (0 = unpaced)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	s, err := specfmt.Load(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "sidecar: %v\n", err)
		return 2
	}

	// Ctrl-C and -timeout both flow through one context; proofs in flight
	// when it fires finish as UNKNOWN instead of being killed mid-solve.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *strictness {
		if fs.NArg() != 3 {
			fmt.Fprintln(stderr, "sidecar: -check-strictness needs MODEL OLD_POLICY NEW_POLICY")
			return 2
		}
		lim := limits.New(ctx)
		if *proofTimeout > 0 {
			lim = lim.WithTimeout(*proofTimeout)
		}
		return checkStrictness(s, fs.Arg(0), fs.Arg(1), fs.Arg(2), *solverRounds, *solverConflicts, lim, stdout, stderr)
	}

	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "sidecar: no migration scripts given")
		return 2
	}
	opts := migrate.DefaultOptions()
	opts.TrackEquivalences = !*noEquiv
	opts.SolverRounds = *solverRounds
	opts.SolverConflicts = *solverConflicts
	opts.Context = ctx
	opts.ProofTimeout = *proofTimeout
	// One verdict store and stats block span every script on the command
	// line, so re-proved queries across a whole migration history hit the
	// store.
	var vdb *verify.Cache
	if *verdictDB != "" {
		vdb, err = verify.OpenVerdictDB(*verdictDB)
		if err != nil {
			fmt.Fprintf(stderr, "sidecar: opening verdict db: %v\n", err)
			return 2
		}
		opts.Cache = vdb
	} else if *cacheSize > 0 {
		opts.Cache = verify.NewCache(*cacheSize)
	}
	stats := &verify.Stats{}
	opts.Stats = stats
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "sidecar: %v\n", err)
			return 2
		}
		traceFile = f
		opts.Trace = obs.NewTracer(f)
	}
	opts.Online = *online
	opts.BatchSize = *batchSize
	opts.Rate = *rate
	var code int
	if *applyMode {
		code = applyScripts(*dataDir, *fsyncMode, fs.Args(), opts, stdout, stderr)
	} else {
		code = verifyScripts(s, fs.Args(), opts, stdout, stderr)
	}
	if traceFile != nil {
		if err := opts.Trace.Err(); err != nil {
			fmt.Fprintf(stderr, "sidecar: writing trace: %v\n", err)
			if code == 0 {
				code = 2
			}
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(stderr, "sidecar: closing trace: %v\n", err)
			if code == 0 {
				code = 2
			}
		}
	}
	if vdb != nil {
		if err := vdb.Close(); err != nil {
			fmt.Fprintf(stderr, "sidecar: closing verdict db: %v\n", err)
			if code == 0 {
				code = 2
			}
		}
	}
	if *showStats {
		fmt.Fprintf(stderr, "sidecar: %s\n", stats.Snapshot())
		if vdb != nil {
			fmt.Fprintf(stderr, "sidecar: verdict-db %d corrupt · %d stored\n", vdb.Corrupt(), vdb.Len())
		}
	}
	return code
}

// applyScripts opens (or recovers) the durable store and runs the scripts
// as a journalled migration history.
func applyScripts(dataDir, fsyncMode string, paths []string, opts migrate.Options, stdout, stderr io.Writer) int {
	if dataDir == "" {
		fmt.Fprintln(stderr, "sidecar: -apply needs -data-dir")
		return 2
	}
	var wopts scooter.DurabilityOptions
	switch fsyncMode {
	case "always":
		wopts.SyncEvery = 1
	case "batch":
		wopts.SyncEvery = 64
	case "never":
		wopts.SyncEvery = -1
	default:
		fmt.Fprintf(stderr, "sidecar: unknown -fsync mode %q\n", fsyncMode)
		return 2
	}
	w, err := scooter.OpenDurable(dataDir, wopts)
	if err != nil {
		fmt.Fprintf(stderr, "sidecar: %v\n", err)
		return 2
	}
	if n := w.Replayed(); n > 0 {
		fmt.Fprintf(stdout, "recovered %d logged writes\n", n)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			w.Close()
			fmt.Fprintf(stderr, "sidecar: %v\n", err)
			return 2
		}
		applied, err := w.MigrateNamedOpts(filepath.Base(path), string(data), opts)
		if err != nil {
			w.Close()
			var uerr *migrate.UnsafeError
			if errors.As(err, &uerr) {
				if uerr.Result != nil && uerr.Result.Verdict == verify.Inconclusive {
					fmt.Fprintf(stdout, "%s: UNKNOWN\n%v\n", path, uerr)
					return 3
				}
				fmt.Fprintf(stdout, "%s: UNSAFE\n%v\n", path, uerr)
				return 1
			}
			fmt.Fprintf(stderr, "sidecar: %s: %v\n", path, err)
			return 2
		}
		if applied {
			fmt.Fprintf(stdout, "%s: APPLIED\n", path)
		} else {
			fmt.Fprintf(stdout, "%s: already applied, skipped\n", path)
		}
	}
	if err := w.Close(); err != nil {
		fmt.Fprintf(stderr, "sidecar: closing log: %v\n", err)
		return 2
	}
	return 0
}

// verifyScripts checks each script in order against the evolving spec,
// returning the process exit code.
func verifyScripts(s *schema.Schema, paths []string, opts migrate.Options, stdout, stderr io.Writer) int {
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "sidecar: %v\n", err)
			return 2
		}
		script, err := parser.ParseMigration(string(data))
		if err != nil {
			fmt.Fprintf(stderr, "sidecar: %s: %v\n", path, err)
			return 2
		}
		plan, err := migrate.Verify(s, script, opts)
		if err != nil {
			var uerr *migrate.UnsafeError
			if errors.As(err, &uerr) {
				if uerr.Result != nil && uerr.Result.Verdict == verify.Inconclusive {
					fmt.Fprintf(stdout, "%s: UNKNOWN\n%v\n", path, uerr)
					return 3
				}
				fmt.Fprintf(stdout, "%s: UNSAFE\n%v\n", path, uerr)
				return 1
			}
			fmt.Fprintf(stderr, "sidecar: %s: %v\n", path, err)
			return 2
		}
		fmt.Fprintf(stdout, "%s: OK (%d commands)\n", path, len(plan.Reports))
		s = plan.After
	}
	return 0
}

func checkStrictness(s *schema.Schema, model, oldSrc, newSrc string, solverRounds int, solverConflicts int64, lim *limits.Checker, stdout, stderr io.Writer) int {
	parse := func(src string) (ast.Policy, bool) {
		p, err := parser.ParsePolicy(src)
		if err != nil {
			fmt.Fprintf(stderr, "sidecar: %v\n", err)
			return ast.Policy{}, false
		}
		if err := typer.New(s).CheckPolicy(model, p); err != nil {
			fmt.Fprintf(stderr, "sidecar: %v\n", err)
			return ast.Policy{}, false
		}
		return p, true
	}
	pOld, ok := parse(oldSrc)
	if !ok {
		return 2
	}
	pNew, ok := parse(newSrc)
	if !ok {
		return 2
	}
	checker := verify.New(s, nil)
	checker.SolverRounds = solverRounds
	checker.SolverConflicts = solverConflicts
	checker.Limits = lim
	res, err := checker.CheckStrictness(model, pOld, pNew)
	if err != nil {
		fmt.Fprintf(stderr, "sidecar: %v\n", err)
		return 2
	}
	switch res.Verdict {
	case verify.Safe:
		fmt.Fprintln(stdout, "OK: the new policy is at least as strict as the old one")
		return 0
	case verify.Inconclusive:
		fmt.Fprintf(stdout, "UNKNOWN: %s\n", inconclusiveReason(res))
		return 3
	default:
		fmt.Fprintln(stdout, "UNSAFE: the new policy admits principals the old one rejects")
		fmt.Fprint(stdout, res.Counterexample)
		return 1
	}
}

// inconclusiveReason names the budget an Inconclusive verdict ran out of.
func inconclusiveReason(res *verify.Result) string {
	if res.Why != nil {
		return res.Why.Error() + " — raise the budget and retry"
	}
	return "the policies use features beyond the decidable fragment (§6.1)"
}

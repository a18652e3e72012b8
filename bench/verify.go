package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"scooter/bench/hardgen"
	"scooter/internal/ast"
	"scooter/internal/casestudies"
	"scooter/internal/migrate"
	"scooter/internal/obs"
	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/typer"
	"scooter/internal/verify"
)

// sidecar collects what the two verifier workloads measure: one operation
// is one script taken from source text to a verdict, timed as a whole and
// per layer.
type sidecar struct {
	op, parse, verify lat
	stats             verify.Stats
	// proofs observes each strictness proof when tracing, for the share
	// of verification time spent outside the solver.
	proofs       *obs.VerifyMetrics
	inconclusive int
	// incomplete counts rejections whose counterexample the verifier marks
	// as possibly spurious (bounded instantiation), which replay cannot
	// be expected to reproduce.
	incomplete int
}

func newSidecar(traced bool) *sidecar {
	sc := &sidecar{}
	if traced {
		sc.proofs = obs.NewVerifyMetrics(obs.NewRegistry())
	}
	return sc
}

// options returns a fresh sidecar invocation's options: a new verdict
// cache, as each `sidecar` process starts with.
func (sc *sidecar) options() migrate.Options {
	opts := migrate.DefaultOptions()
	opts.Cache = verify.NewCache(verify.DefaultCacheCapacity)
	opts.Stats = &sc.stats
	opts.Metrics = sc.proofs
	return opts
}

func (sc *sidecar) parseMigration(parent *active, src string) (*ast.MigrationScript, error) {
	sp := parent.child("parser")
	start := time.Now()
	script, err := parser.ParseMigration(src)
	sc.parse.add(time.Since(start))
	sp.end()
	return script, err
}

func (sc *sidecar) parseSpec(parent *active, src string) (*schema.Schema, error) {
	sp := parent.child("parser")
	start := time.Now()
	f, err := parser.ParsePolicyFile(src)
	sc.parse.add(time.Since(start))
	sp.end()
	if err != nil {
		return nil, err
	}
	s := schema.FromPolicyFile(f)
	return s, typer.New(s).CheckSchema()
}

func (sc *sidecar) verifyScript(parent *active, before *schema.Schema, script *ast.MigrationScript, opts migrate.Options) (*migrate.Plan, error) {
	sp := parent.child("migrate")
	start := time.Now()
	plan, err := migrate.Verify(before, script, opts)
	sc.verify.add(time.Since(start))
	sp.end()
	return plan, err
}

// report records the end-to-end and verifier-layer metrics of a window in
// which sc verified scripts at rate scripts per second.
func (sc *sidecar) report(e *env, rate float64) error {
	e.checkpointHeap()
	if err := e.setOpLatency(&sc.op); err != nil {
		return err
	}
	n := sc.op.len()
	e.rep.set("ops_per_s", "1/s", rate, n)
	ps := sc.parse.sorted()
	e.rep.set("parser.parse_us_p50", "us", quantile(ps, 0.5)*1e6, len(ps))
	e.setLatency("migrate.verify_us_p50", "migrate.verify_us_p99", "us", &sc.verify)
	// Proofs of one script run on up to GOMAXPROCS goroutines, so their
	// summed time can exceed the script's wall time; the ratio is above 1
	// then, and one minus it is no share of anything.
	proofRatio, vs := 0.0, sc.verify.sorted()
	if sc.proofs != nil {
		total := 0.0
		for _, v := range vs {
			total += v
		}
		proofRatio = sc.proofs.ProofSeconds.Sum() / total
	}
	e.rep.set("migrate.proof_time_ratio", "ratio", proofRatio, len(vs))
	st := sc.stats.Snapshot()
	e.rep.set("verify.cache_hit_ratio", "ratio", ratio(st.CacheHits, st.CacheHits+st.CacheMisses), int(st.CacheHits+st.CacheMisses))
	e.rep.set("verify.persist_hit_ratio", "ratio", ratio(st.PersistHits, st.PersistHits+st.PersistMisses), int(st.PersistHits+st.PersistMisses))
	e.rep.set("verify.queries_solved_per_script", "count", ratio(st.QueriesSolved, int64(n)), n)
	e.rep.set("verify.inconclusive_per_script", "count", ratio(int64(sc.inconclusive), int64(n)), n)
	e.rep.set("verify.incomplete_per_script", "count", ratio(int64(sc.incomplete), int64(n)), n)
	solves := int(st.QueriesSolved)
	e.rep.set("smt.rounds_per_solve", "count", ratio(st.SolverRounds, st.QueriesSolved), solves)
	e.rep.set("smt.theory_checks_per_solve", "count", ratio(st.TheoryChecks, st.QueriesSolved), solves)
	e.rep.set("smt.conflicts_per_solve", "count", ratio(st.Conflicts, st.QueriesSolved), solves)
	e.rep.set("smt.decisions_per_solve", "count", ratio(st.Decisions, st.QueriesSolved), solves)
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkRejection checks a rejected script: the verifier must give a
// definite counterexample that reproduces against the runtime evaluator,
// unless it marks the counterexample incomplete or replay would not be
// exact (see replayPolicies).
func (sc *sidecar) checkRejection(s *schema.Schema, script *ast.MigrationScript, err error) error {
	var ue *migrate.UnsafeError
	if !errors.As(err, &ue) {
		return err
	}
	if ue.Result != nil && ue.Result.Verdict == verify.Inconclusive {
		sc.inconclusive++
		return nil
	}
	if ue.Result == nil || ue.Result.Counterexample == nil {
		return fmt.Errorf("rejected without a counterexample: %v", err)
	}
	if ue.Result.Incomplete {
		sc.incomplete++
		return nil
	}
	model, old, cands, ok := replayPolicies(s, script, ue)
	if !ok {
		return nil
	}
	var rerr error
	for _, p := range cands {
		if rerr = verify.Replay(s, ue.Result.Counterexample, model, old[p.op], p.pol); rerr == nil {
			return nil
		}
	}
	return fmt.Errorf("counterexample for command %d does not reproduce: %v", ue.Index+1, rerr)
}

type candidate struct {
	op  ast.Operation
	pol ast.Policy
}

// replayPolicies returns the model of the rejected command, the policies
// in force before it (by operation), and the new policies it may have
// been rejected for. It reports false when replay would not be exact: the
// script added a field before the rejected command (prior definitions
// change evaluation mid-script), or a flow crosses models.
func replayPolicies(s *schema.Schema, script *ast.MigrationScript, ue *migrate.UnsafeError) (string, map[ast.Operation]ast.Policy, []candidate, bool) {
	type key struct{ model, field string }
	cur := map[key][2]ast.Policy{}
	for _, m := range s.Models {
		for _, f := range m.Fields {
			cur[key{m.Name, f.Name}] = [2]ast.Policy{f.Read, f.Write}
		}
	}
	for _, cmd := range script.Commands[:ue.Index] {
		switch c := cmd.(type) {
		case *ast.AddField:
			return "", nil, nil, false
		case *ast.UpdateFieldPolicy:
			p := cur[key{c.ModelName, c.FieldName}]
			if c.Read != nil {
				p[0] = *c.Read
			}
			if c.Write != nil {
				p[1] = *c.Write
			}
			cur[key{c.ModelName, c.FieldName}] = p
		}
	}
	switch c := ue.Command.(type) {
	case *ast.UpdateFieldPolicy:
		p := cur[key{c.ModelName, c.FieldName}]
		old := map[ast.Operation]ast.Policy{ast.OpRead: p[0], ast.OpWrite: p[1]}
		var cands []candidate
		if c.Read != nil {
			cands = append(cands, candidate{ast.OpRead, *c.Read})
		}
		if c.Write != nil {
			cands = append(cands, candidate{ast.OpWrite, *c.Write})
		}
		return c.ModelName, old, cands, true
	case *ast.AddField:
		if ue.Flow == nil || ue.Flow.SrcModel != c.ModelName {
			return "", nil, nil, false
		}
		src, ok := cur[key{c.ModelName, ue.Flow.SrcField}]
		if !ok {
			return "", nil, nil, false
		}
		return c.ModelName, map[ast.Operation]ast.Policy{ast.OpRead: src[0]}, []candidate{{ast.OpRead, c.Field.Read}}, true
	}
	return "", nil, nil, false
}

// corpusInputs are the shipped histories and the §5.2 unsafe cases, parsed
// once: each pass still parses every migration script, as sidecar does.
type corpusInputs struct {
	studies []*casestudies.Study
	unsafe  []unsafeCase
}

type unsafeCase struct {
	key    string
	schema *schema.Schema
	src    string
}

func loadCorpus() (*corpusInputs, error) {
	studies, err := casestudies.AllStudies()
	if err != nil {
		return nil, err
	}
	in := &corpusInputs{studies: studies}
	for _, c := range casestudies.UnsafeCases() {
		f, err := parser.ParsePolicyFile(c.Spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Key, err)
		}
		s := schema.FromPolicyFile(f)
		if err := typer.New(s).CheckSchema(); err != nil {
			return nil, fmt.Errorf("%s: %w", c.Key, err)
		}
		in.unsafe = append(in.unsafe, unsafeCase{key: c.Key, schema: s, src: c.Migration})
	}
	return in, nil
}

// corpusPass is one sidecar invocation over the whole corpus: it reopens
// the verdict store at path, verifies every history in the given study
// order and then every unsafe case, and closes the store. The histories
// must verify and the unsafe cases must be rejected with counterexamples
// that reproduce; each script is one operation recorded in sc.
func corpusPass(e *env, tr *tracer, sc *sidecar, in *corpusInputs, order []int, path string, opens *lat) error {
	start := time.Now()
	vdb, err := verify.OpenVerdictDB(path)
	if err != nil {
		return err
	}
	opens.add(time.Since(start))
	opts := sc.options()
	opts.VerdictDB = vdb
	ops := int64(0)
	for _, i := range order {
		study := in.studies[i]
		cur := schema.New()
		for _, sc0 := range study.Scripts {
			ops++
			root := tr.root("bench", ops)
			t0 := time.Now()
			script, err := sc.parseMigration(root, sc0.Source)
			var plan *migrate.Plan
			if err == nil {
				plan, err = sc.verifyScript(root, cur, script, opts)
			}
			sc.op.add(time.Since(t0))
			root.end()
			if err != nil {
				e.rep.fail("%s/%s: %v", study.Key, sc0.Name, err)
				break
			}
			cur = plan.After
		}
	}
	for _, c := range in.unsafe {
		ops++
		root := tr.root("bench", ops)
		t0 := time.Now()
		script, err := sc.parseMigration(root, c.src)
		if err == nil {
			_, err = sc.verifyScript(root, c.schema, script, opts)
		}
		sc.op.add(time.Since(t0))
		root.end()
		switch {
		case script == nil:
			e.rep.fail("%s: %v", c.key, err)
		case err == nil:
			e.rep.fail("%s: unsafe migration accepted", c.key)
		default:
			if cerr := sc.checkRejection(c.schema, script, err); cerr != nil {
				e.rep.fail("%s: %v", c.key, cerr)
			}
		}
	}
	e.rep.attempt(ops)
	return vdb.Close()
}

// runCorpus is CI re-verifying shipped histories (§5.3): passes over the
// eight case-study histories and the four §5.2 unsafe cases, each pass a
// fresh sidecar invocation with a new verdict cache and the verdict store
// seeded during set-up. The seed draws the order of the histories in each
// pass. Every query is answered from the caches, so the solver must not
// run.
func runCorpus(e *env) error {
	in, err := loadCorpus()
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(e.seed))
	path, err := setup(e, func(i int) (string, error) {
		path := filepath.Join(e.dir, fmt.Sprintf("verdicts-%d.db", i))
		// The first pass seeds the verdict store, the others warm up.
		for range 1 + e.sz.corpusWarmup {
			if err := corpusPass(e, nil, newSidecar(false), in, r.Perm(len(in.studies)), path, &lat{}); err != nil {
				return "", err
			}
		}
		return path, nil
	}, func(string) {})
	if err != nil {
		return err
	}
	e.rep.attempted = 0

	sc := newSidecar(e.tr != nil)
	var opens lat
	var passErr error
	before := readRuntime()
	rate := inBursts(int(e.sz.corpusPassRate*e.window.Seconds()), func(int) int {
		if passErr != nil {
			return 0
		}
		n := sc.op.len()
		passErr = corpusPass(e, e.tr, sc, in, r.Perm(len(in.studies)), path, &opens)
		return sc.op.len() - n
	})
	e.setGC(before, readRuntime())
	if passErr != nil {
		return passErr
	}
	if solved := sc.stats.Snapshot().QueriesSolved; solved != 0 {
		e.rep.fail("corpus replay solved %d queries; want every verdict from the caches", solved)
	}
	opened := opens.sorted()
	e.rep.set("verify.vdb_open_ms", "ms", quantile(opened, 0.5)*1e3, len(opened))
	return sc.report(e, rate)
}

// runSolverHard is a developer running sidecar on migrations whose
// policies defeat preprocessing: hardgen scripts, each its own invocation
// with a fresh verdict cache and no verdict store, verified in passes over
// the seeded population. Safe-by-construction scripts must be accepted,
// and every definite counterexample must reproduce.
func runSolverHard(e *env) error {
	scripts, err := setup(e, func(int) ([]hardgen.Script, error) {
		scripts := hardgen.Generate(e.seed, e.sz.hardScripts)
		warm := newSidecar(false)
		for _, s := range scripts[:min(e.sz.hardWarmup, len(scripts))] {
			hardOp(e, nil, warm, s, 0)
		}
		return scripts, nil
	}, func([]hardgen.Script) {})
	if err != nil {
		return err
	}
	e.rep.attempted = 0

	sc := newSidecar(e.tr != nil)
	before := readRuntime()
	rate := inBursts(int(e.sz.hardRate*e.window.Seconds()), func(i int) int {
		hardOp(e, e.tr, sc, scripts[i%len(scripts)], int64(i+1))
		return 1
	})
	e.setGC(before, readRuntime())
	return sc.report(e, rate)
}

// hardOp verifies one hardgen script as one sidecar invocation and checks
// the verdict.
func hardOp(e *env, tr *tracer, sc *sidecar, hs hardgen.Script, req int64) {
	e.rep.attempt(1)
	root := tr.root("bench", req)
	t0 := time.Now()
	s, err := sc.parseSpec(root, hs.Spec)
	var script *ast.MigrationScript
	if err == nil {
		script, err = sc.parseMigration(root, hs.Migration)
	}
	if err == nil {
		_, err = sc.verifyScript(root, s, script, sc.options())
	}
	sc.op.add(time.Since(t0))
	root.end()
	switch {
	case script == nil:
		e.rep.fail("%s: %v", hs.Name, err)
	case err == nil:
	case hs.Safe:
		e.rep.fail("%s: safe-by-construction migration rejected: %v", hs.Name, err)
	default:
		if cerr := sc.checkRejection(s, script, err); cerr != nil {
			e.rep.fail("%s: %v", hs.Name, cerr)
		}
	}
}

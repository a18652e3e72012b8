package equivcheck

import (
	"fmt"
	"math"
	"sort"

	"scooter/internal/ast"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// universeSet enumerates every document universe over the source schema up
// to the bound, after the relevance reductions:
//
//   - Relevant models are those a side mutates (AddField / RemoveField /
//     DeleteModel targets) or an initialiser reads via Find/ById. All
//     other collections are spectators — both sides copy them untouched —
//     so they are seeded empty. DeleteModel targets count as mutated even
//     though the final schemas agree: delete-then-recreate versus no-op
//     yields equal schemas but an emptied collection.
//   - Relevant fields are those some initialiser of either side reads.
//     Irrelevant fields take a single canonical default: no initialiser
//     observes them, and both sides carry them through identically.
//   - Universes are enumerated up to document renaming: documents of a
//     model form a multiset of valuations, so valuation indices are
//     non-decreasing per model, and ids come from fixed per-model ranges.
type universeSet struct {
	models []modelUniverse
	// total is the full product; the caller compares it to MaxUniverses.
	total int64
	// maxID is the largest document id any seeding assigns.
	maxID store.ID
}

// modelUniverse is the per-model slice of the enumeration.
type modelUniverse struct {
	name   string
	fields []fieldDomain
	// baseID starts the model's fixed id range: docs get baseID+1, ...
	baseID store.ID
	// counts holds, per document count 0..bound, the list of non-decreasing
	// valuation-index sequences of that length.
	counts [][][]int
	// nvals is the size of the valuation space (product of field domains).
	nvals int64
}

// fieldDomain is the set of values a relevant field ranges over (a single
// canonical default for irrelevant fields).
type fieldDomain struct {
	name   string
	values []store.Value
}

// seededUniverse is one point of the enumeration: a choice of valuation
// sequence per relevant model.
type seededUniverse struct {
	set *universeSet
	// seq[i] is the chosen valuation-index sequence for models[i].
	seq [][]int
}

// buildUniverses computes the relevance reductions and value domains.
func buildUniverses(before *schema.Schema, a, b side, bound int) (*universeSet, error) {
	relevantModels := map[string]bool{}
	markModel := func(name string) {
		if before.Model(name) != nil {
			relevantModels[name] = true
		}
	}
	for _, s := range []*side{&a, &b} {
		for _, m := range s.mutated {
			markModel(m)
		}
		for _, af := range s.inits {
			markModel(af.ModelName)
			for m := range ast.ReferencedModels(af.Init.Body) {
				markModel(m)
			}
		}
	}

	relevantFields := map[ast.FieldRef]bool{}
	for _, s := range []*side{&a, &b} {
		for _, af := range s.inits {
			for ref := range ast.ReferencedFields(af.Init.Body) {
				if m := before.Model(ref.Model); m != nil && m.Field(ref.Field) != nil {
					relevantFields[ref] = true
				}
			}
		}
	}

	intLits, strLits, dtLits := mineLiterals(a, b)

	names := make([]string, 0, len(relevantModels))
	for name := range relevantModels {
		names = append(names, name)
	}
	sort.Strings(names)

	set := &universeSet{total: 1}
	for i, name := range names {
		m := before.Model(name)
		mu := modelUniverse{name: name, baseID: store.ID(i * bound)}
		for _, f := range m.Fields {
			dom := fieldDomain{name: f.Name}
			if relevantFields[ast.FieldRef{Model: name, Field: f.Name}] {
				dom.values = domainValues(f.Type, relevantModels, names, bound, intLits, strLits, dtLits)
			} else {
				dom.values = []store.Value{defaultValue(f.Type, relevantModels, names, bound)}
			}
			mu.fields = append(mu.fields, dom)
		}
		mu.nvals = 1
		for _, d := range mu.fields {
			mu.nvals *= int64(len(d.values))
			if mu.nvals > 1<<32 {
				return nil, fmt.Errorf("valuation space for %s overflows", name)
			}
		}
		mu.counts = make([][][]int, bound+1)
		for c := 0; c <= bound; c++ {
			mu.counts[c] = multisets(int(mu.nvals), c)
		}
		perModel := int64(0)
		for c := 0; c <= bound; c++ {
			perModel += int64(len(mu.counts[c]))
		}
		set.total *= perModel
		if set.total > 1<<40 {
			set.total = 1 << 40 // saturate; already far past any sane cap
		}
		if last := mu.baseID + store.ID(bound); last > set.maxID {
			set.maxID = last
		}
		set.models = append(set.models, mu)
	}
	return set, nil
}

// multisets returns every non-decreasing sequence of length c over indices
// 0..n-1 (combinations with repetition): the canonical representatives of
// document multisets up to renaming.
func multisets(n, c int) [][]int {
	if c == 0 {
		return [][]int{{}}
	}
	if n == 0 {
		return nil
	}
	var out [][]int
	seq := make([]int, c)
	var rec func(pos, min int)
	rec = func(pos, min int) {
		if pos == c {
			out = append(out, append([]int(nil), seq...))
			return
		}
		for v := min; v < n; v++ {
			seq[pos] = v
			rec(pos+1, v)
		}
	}
	rec(0, 0)
	return out
}

// mineLiterals collects the integer, string, and datetime literals
// appearing in either side's initialisers: boundary values the initialiser
// branches on, so the domains should straddle them.
func mineLiterals(a, b side) (ints []int64, strs []string, dts []int64) {
	seenI, seenS, seenD := map[int64]bool{}, map[string]bool{}, map[int64]bool{}
	for _, s := range []*side{&a, &b} {
		for _, af := range s.inits {
			ast.Walk(af.Init.Body, func(e ast.Expr) bool {
				switch lit := e.(type) {
				case *ast.IntLit:
					seenI[lit.Value] = true
				case *ast.StringLit:
					seenS[lit.Value] = true
				case *ast.DateTimeLit:
					seenD[lit.Unix] = true
				}
				return true
			})
		}
	}
	for v := range seenI {
		ints = append(ints, v)
	}
	for v := range seenS {
		strs = append(strs, v)
	}
	for v := range seenD {
		dts = append(dts, v)
	}
	sort.Slice(ints, func(i, j int) bool { return ints[i] < ints[j] })
	sort.Strings(strs)
	sort.Slice(dts, func(i, j int) bool { return dts[i] < dts[j] })
	if len(ints) > 2 {
		ints = ints[:2]
	}
	if len(strs) > 2 {
		strs = strs[:2]
	}
	if len(dts) > 2 {
		dts = dts[:2]
	}
	return ints, strs, dts
}

// firstID returns the first id of a relevant model's fixed range, or a
// dangling id for irrelevant targets (their collections are empty, so any
// reference is dangling; one canonical value suffices).
func firstID(target string, names []string, bound int) store.ID {
	for i, n := range names {
		if n == target {
			return store.ID(i*bound) + 1
		}
	}
	return store.ID(1 << 30)
}

// defaultValue is the single canonical value an irrelevant field takes.
func defaultValue(t ast.Type, relevant map[string]bool, names []string, bound int) store.Value {
	switch t.Kind {
	case ast.TBool:
		return false
	case ast.TI64, ast.TDateTime:
		return int64(0)
	case ast.TF64:
		return 0.0
	case ast.TString, ast.TBlob:
		return ""
	case ast.TId:
		return firstID(t.Model, names, bound)
	case ast.TOption:
		return store.None()
	case ast.TSet:
		return []store.Value{}
	default:
		return ""
	}
}

// edgeInts are the machine-integer values every varied I64 and DateTime
// domain includes: the ends where arithmetic wraps, -1, and ±2^53, past
// which float64 no longer holds every integer.
var edgeInts = []store.Value{int64(math.MinInt64), int64(-1 << 53), int64(-1), int64(1 << 53), int64(math.MaxInt64)}

// domainValues is the varied domain of a relevant field: enough values to
// exercise every branch shape an initialiser can take at this bound, plus
// the literals it mentions and, for integers, edgeInts.
func domainValues(t ast.Type, relevant map[string]bool, names []string, bound int, ints []int64, strs []string, dts []int64) []store.Value {
	uniq := func(vals []store.Value) []store.Value {
		var out []store.Value
		seen := map[string]bool{}
		for _, v := range vals {
			k := fmt.Sprintf("%T:%v", v, v)
			if !seen[k] {
				seen[k] = true
				out = append(out, v)
			}
		}
		return out
	}
	switch t.Kind {
	case ast.TBool:
		return []store.Value{false, true}
	case ast.TI64:
		vals := []store.Value{int64(0), int64(1)}
		for _, v := range ints {
			vals = append(vals, v, v+1)
		}
		return uniq(append(vals, edgeInts...))
	case ast.TDateTime:
		vals := []store.Value{int64(0), int64(1)}
		for _, v := range dts {
			vals = append(vals, v, v+1)
		}
		return uniq(append(vals, edgeInts...))
	case ast.TF64:
		return []store.Value{0.0, 1.0}
	case ast.TString:
		vals := []store.Value{"", "a"}
		for _, v := range strs {
			vals = append(vals, v)
		}
		return uniq(vals)
	case ast.TId:
		first := firstID(t.Model, names, bound)
		if relevant[t.Model] && bound >= 2 {
			return []store.Value{first, first + 1}
		}
		return []store.Value{first}
	case ast.TOption:
		return []store.Value{store.None(), store.Some(defaultValue(*t.Elem, relevant, names, bound))}
	case ast.TSet:
		return []store.Value{[]store.Value{}, []store.Value{defaultValue(*t.Elem, relevant, names, bound)}}
	case ast.TBlob:
		return []store.Value{""}
	default:
		return []store.Value{""}
	}
}

// each walks the full enumeration, calling fn on every seeded universe
// until fn reports done. Iteration order is deterministic (odometer over
// sorted models, counts ascending, valuation sequences lexicographic).
func (u *universeSet) each(fn func(seededUniverse) (bool, error)) (bool, error) {
	// flat[i] lists every (count, seq) choice for model i, in order.
	flat := make([][][]int, len(u.models))
	for i, mu := range u.models {
		for _, seqs := range mu.counts {
			flat[i] = append(flat[i], seqs...)
		}
	}
	pick := make([]int, len(u.models))
	for {
		seq := make([][]int, len(u.models))
		for i := range u.models {
			if len(flat[i]) == 0 {
				seq[i] = nil
				continue
			}
			seq[i] = flat[i][pick[i]]
		}
		done, err := fn(seededUniverse{set: u, seq: seq})
		if err != nil || done {
			return done, err
		}
		// Advance the odometer.
		i := len(pick) - 1
		for ; i >= 0; i-- {
			if len(flat[i]) == 0 {
				continue
			}
			pick[i]++
			if pick[i] < len(flat[i]) {
				break
			}
			pick[i] = 0
		}
		if i < 0 {
			return false, nil
		}
	}
}

// seed materialises the universe into a fresh store: every relevant model's
// documents at their fixed ids, next-id advanced past every range so ids
// allocated by either side's execution cannot collide with seeded ones.
func (u seededUniverse) seed() *store.DB {
	db := store.Open()
	for i, mu := range u.set.models {
		coll := db.Collection(mu.name)
		for j, vidx := range u.seq[i] {
			doc := store.Doc{}
			rem := int64(vidx)
			// Decode the valuation index in mixed radix over the field
			// domains (last field varies fastest).
			for k := len(mu.fields) - 1; k >= 0; k-- {
				d := mu.fields[k]
				n := int64(len(d.values))
				doc[d.name] = cloneValue(d.values[rem%n])
				rem /= n
			}
			id := mu.baseID + store.ID(j+1)
			if err := coll.InsertWithID(id, doc); err != nil {
				panic(fmt.Sprintf("equivcheck: seeding %s id %d: %v", mu.name, id, err))
			}
		}
	}
	db.AdvanceNextID(u.set.maxID)
	return db
}

// cloneValue copies mutable seed values (sets) so universes stay immutable
// across the two executions.
func cloneValue(v store.Value) store.Value {
	if s, ok := v.([]store.Value); ok {
		out := make([]store.Value, len(s))
		copy(out, s)
		return out
	}
	return v
}

// describe renders the universe compactly for counterexample labelling.
func (u seededUniverse) describe() string {
	total := 0
	for i := range u.set.models {
		total += len(u.seq[i])
	}
	return fmt.Sprintf("%d seeded document(s)", total)
}

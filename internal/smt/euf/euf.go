// Package euf decides conjunctions of equalities and disequalities over
// uninterpreted functions by congruence closure. Sidecar uses it for
// instance identity, string/principal reasoning, and field functions (the
// paper encodes each field as a function from instances to values, §4).
//
// The engine is not incremental: the solver hands it the full set of
// asserted (dis)equalities at once and minimises unsatisfiable cores at a
// higher level. This keeps the closure algorithm simple while
// remaining fast for the formula sizes migration verification produces.
package euf

import (
	"strconv"

	"scooter/internal/smt/term"
)

// Assertion is an equality or disequality between two terms.
type Assertion struct {
	A, B  term.T
	Equal bool
}

// Result of a satisfiability check.
type Result struct {
	Sat bool
	// Conflict holds the indexes (into the input assertions) of a
	// conflicting subset when unsat; it is the full input by default and
	// is minimised by the caller.
	Conflict []int
	// Classes maps each involved term to its representative when sat.
	Classes map[term.T]term.T
	// AppReps maps final congruence signatures (SigKey) to a registered
	// application term, letting callers resolve applications the check
	// never saw to their congruent class.
	AppReps map[string]term.T
}

// SigKey is the canonical congruence signature of an application with the
// given function name and argument class representatives.
func SigKey(name string, argReps []term.T) string {
	return string(appendSigKey(nil, name, argReps))
}

// appendSigKey appends SigKey(name, argReps) to dst. The name is length-
// prefixed, so no name can pose as another name plus arguments.
func appendSigKey(dst []byte, name string, argReps []term.T) []byte {
	dst = strconv.AppendInt(dst, int64(len(name)), 10)
	dst = append(dst, ':')
	dst = append(dst, name...)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(len(argReps)), 10)
	for _, a := range argReps {
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(a), 10)
	}
	return dst
}

// engine performs one congruence-closure run.
type engine struct {
	b      *term.Builder
	parent map[term.T]term.T
	// uses maps a representative to the application terms whose arguments
	// touch that class (for congruence re-checking after merges).
	uses map[term.T][]term.T
	// sig maps an application signature to a representative application.
	sig map[string]term.T
	// pending is the merge worklist.
	pending [][2]term.T
	// reps and key are scratch for signature.
	reps []term.T
	key  []byte
}

// Check decides whether the assertions are jointly satisfiable.
func Check(b *term.Builder, assertions []Assertion) Result {
	return CheckWithTerms(b, assertions, nil)
}

// CheckWithTerms additionally registers extra terms in the congruence
// closure, so that equalities implied between them are reflected in the
// resulting classes even when no assertion mentions them directly.
func CheckWithTerms(b *term.Builder, assertions []Assertion, extra []term.T) Result {
	e := &engine{
		b:      b,
		parent: map[term.T]term.T{},
		uses:   map[term.T][]term.T{},
		sig:    map[string]term.T{},
	}
	// Register every subterm.
	for _, a := range assertions {
		e.addTerm(a.A)
		e.addTerm(a.B)
	}
	for _, t := range extra {
		e.addTerm(t)
	}
	e.propagate()
	// Process equalities.
	for _, a := range assertions {
		if a.Equal {
			e.merge(a.A, a.B)
		}
	}
	e.propagate()
	// Check disequalities.
	for i, a := range assertions {
		if !a.Equal && e.find(a.A) == e.find(a.B) {
			conflict := make([]int, 0, len(assertions))
			for j, aj := range assertions {
				if aj.Equal || j == i {
					conflict = append(conflict, j)
				}
			}
			return Result{Sat: false, Conflict: conflict}
		}
	}
	classes := make(map[term.T]term.T, len(e.parent))
	for t := range e.parent {
		classes[t] = e.find(t)
	}
	appReps := map[string]term.T{}
	for t := range e.parent {
		if b.Op(t) == term.OpApp {
			e.signature(t)
			appReps[string(e.key)] = e.find(t)
		}
	}
	return Result{Sat: true, Classes: classes, AppReps: appReps}
}

// addTerm registers t and its subterms in the union-find and use lists.
func (e *engine) addTerm(t term.T) {
	if _, ok := e.parent[t]; ok {
		return
	}
	e.parent[t] = t
	for _, arg := range e.b.Args(t) {
		if e.b.Op(t) == term.OpApp {
			e.addTerm(arg)
		} else {
			e.addTerm(arg)
		}
	}
	if e.b.Op(t) == term.OpApp {
		for _, arg := range e.b.Args(t) {
			rep := e.find(arg)
			e.uses[rep] = append(e.uses[rep], t)
		}
		e.checkSignature(t)
	}
}

func (e *engine) find(t term.T) term.T {
	root := t
	for e.parent[root] != root {
		root = e.parent[root]
	}
	// Path compression.
	for e.parent[t] != root {
		t, e.parent[t] = e.parent[t], root
	}
	return root
}

// signature sets e.key to the congruence key of an application term under
// the current partition.
func (e *engine) signature(t term.T) {
	e.reps = e.reps[:0]
	for _, a := range e.b.Args(t) {
		e.reps = append(e.reps, e.find(a))
	}
	e.key = appendSigKey(e.key[:0], e.b.Name(t), e.reps)
}

// checkSignature looks t up in the signature table, scheduling a merge when
// a congruent application already exists.
func (e *engine) checkSignature(t term.T) {
	e.signature(t)
	if other, ok := e.sig[string(e.key)]; ok {
		if e.find(other) != e.find(t) {
			e.pending = append(e.pending, [2]term.T{t, other})
		}
		return
	}
	e.sig[string(e.key)] = t
}

func (e *engine) merge(a, b term.T) {
	e.pending = append(e.pending, [2]term.T{a, b})
	e.propagate()
}

func (e *engine) propagate() {
	for len(e.pending) > 0 {
		pair := e.pending[len(e.pending)-1]
		e.pending = e.pending[:len(e.pending)-1]
		ra, rb := e.find(pair[0]), e.find(pair[1])
		if ra == rb {
			continue
		}
		// Union by use-list size: merge the smaller class into the larger.
		if len(e.uses[ra]) > len(e.uses[rb]) {
			ra, rb = rb, ra
		}
		e.parent[ra] = rb
		// Re-check congruences of applications that used the merged class.
		moved := e.uses[ra]
		e.uses[rb] = append(e.uses[rb], moved...)
		delete(e.uses, ra)
		for _, app := range moved {
			e.checkSignature(app)
		}
	}
}

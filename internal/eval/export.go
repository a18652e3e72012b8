package eval

import "scooter/internal/store"

// ValuesEqual reports whether two runtime values are equal under the
// evaluator's equality: Options compare structurally, numbers compare by
// store.CompareNumeric, everything else compares with ==. Exported so the
// compiled-policy engine (internal/policyc) decides == and != bit-for-bit
// the same way the interpreter does.
func ValuesEqual(a, b store.Value) bool { return valuesEqual(a, b) }

// CompareNumeric is store.CompareNumeric, re-exported beside ValuesEqual
// so the compiled engine orders values through the interpreter's package.
func CompareNumeric(a, b any) (int, bool) { return store.CompareNumeric(a, b) }

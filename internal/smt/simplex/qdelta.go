package simplex

import (
	"fmt"
	"math/big"
)

// QDelta is a rational with an infinitesimal component: r + d·δ where δ is
// an arbitrarily small positive value. Strict bounds x < c are represented
// as x <= c - δ, the standard trick for handling strict inequalities in
// simplex (Dutertre & de Moura).
type QDelta struct {
	R *big.Rat // real part
	D *big.Rat // delta coefficient
}

// QD builds a QDelta from rational and delta parts.
func QD(r, d *big.Rat) QDelta {
	return QDelta{R: new(big.Rat).Set(r), D: new(big.Rat).Set(d)}
}

// QDRat builds a QDelta with no infinitesimal part.
func QDRat(r *big.Rat) QDelta {
	return QDelta{R: new(big.Rat).Set(r), D: new(big.Rat)}
}

// QDInt builds a QDelta from an int64.
func QDInt(v int64) QDelta {
	return QDelta{R: new(big.Rat).SetInt64(v), D: new(big.Rat)}
}

// Clone returns a copy.
func (q QDelta) Clone() QDelta { return QD(q.R, q.D) }

// Cmp compares lexicographically: first real parts, then delta parts.
func (q QDelta) Cmp(o QDelta) int {
	if c := q.R.Cmp(o.R); c != 0 {
		return c
	}
	return q.D.Cmp(o.D)
}

// Sub returns q - o.
func (q QDelta) Sub(o QDelta) QDelta {
	return QDelta{
		R: new(big.Rat).Sub(q.R, o.R),
		D: new(big.Rat).Sub(q.D, o.D),
	}
}

// addMul adds c·x to q in place, using tmp as scratch. q must not share its
// rationals with any other value.
func (q QDelta) addMul(c *big.Rat, x QDelta, tmp *big.Rat) {
	if x.R.Sign() != 0 {
		q.R.Add(q.R, tmp.Mul(c, x.R))
	}
	if x.D.Sign() != 0 {
		q.D.Add(q.D, tmp.Mul(c, x.D))
	}
}

// IsZero reports whether both parts are zero.
func (q QDelta) IsZero() bool { return q.R.Sign() == 0 && q.D.Sign() == 0 }

func (q QDelta) String() string {
	if q.D.Sign() == 0 {
		return q.R.RatString()
	}
	return fmt.Sprintf("%s+%sδ", q.R.RatString(), q.D.RatString())
}

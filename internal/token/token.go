// Package token defines the lexical tokens of the Scooter policy and
// migration languages, along with source positions used in diagnostics.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// The token kinds produced by the lexer. Scooter_p (policy files) and
// Scooter_m (migration scripts) share one lexical grammar.
const (
	// Special tokens.
	ILLEGAL Kind = iota
	EOF

	// Literals and identifiers.
	IDENT    // User, name, u
	INT      // 42
	FLOAT    // 4.2
	STRING   // "hello"
	DATETIME // d4-2-2021-13:59:59

	// Operators and delimiters.
	PLUS      // +
	MINUS     // -
	LT        // <
	LE        // <=
	GT        // >
	GE        // >=
	EQ        // ==
	NE        // !=
	ARROW     // ->
	COLON     // :
	DOUBLECOL // ::
	COMMA     // ,
	SEMI      // ;
	DOT       // .
	LPAREN    // (
	RPAREN    // )
	LBRACE    // {
	RBRACE    // }
	LBRACKET  // [
	RBRACKET  // ]
	AT        // @
	UNDER     // _ (wildcard parameter)

	// Keywords.
	KwTrue
	KwFalse
	KwPublic
	KwNone
	KwNow
	KwIf
	KwThen
	KwElse
	KwMatch
	KwAs
	KwIn
	KwSome
	KwNoneOpt // None (Option constructor); distinct from the `none` policy
)

var kindNames = map[Kind]string{
	ILLEGAL:   "ILLEGAL",
	EOF:       "EOF",
	IDENT:     "IDENT",
	INT:       "INT",
	FLOAT:     "FLOAT",
	STRING:    "STRING",
	DATETIME:  "DATETIME",
	PLUS:      "+",
	MINUS:     "-",
	LT:        "<",
	LE:        "<=",
	GT:        ">",
	GE:        ">=",
	EQ:        "==",
	NE:        "!=",
	ARROW:     "->",
	COLON:     ":",
	DOUBLECOL: "::",
	COMMA:     ",",
	SEMI:      ";",
	DOT:       ".",
	LPAREN:    "(",
	RPAREN:    ")",
	LBRACE:    "{",
	RBRACE:    "}",
	LBRACKET:  "[",
	RBRACKET:  "]",
	AT:        "@",
	UNDER:     "_",
	KwTrue:    "true",
	KwFalse:   "false",
	KwPublic:  "public",
	KwNone:    "none",
	KwNow:     "now",
	KwIf:      "if",
	KwThen:    "then",
	KwElse:    "else",
	KwMatch:   "match",
	KwAs:      "as",
	KwIn:      "in",
	KwSome:    "Some",
	KwNoneOpt: "None",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps source spellings to keyword kinds.
var Keywords = map[string]Kind{
	"true":   KwTrue,
	"false":  KwFalse,
	"public": KwPublic,
	"none":   KwNone,
	"now":    KwNow,
	"if":     KwIf,
	"then":   KwThen,
	"else":   KwElse,
	"match":  KwMatch,
	"as":     KwAs,
	"in":     KwIn,
	"Some":   KwSome,
	"None":   KwNoneOpt,
}

// Pos is a position in a source file, 1-based.
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// IsValid reports whether the position was set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a single lexical token with its source text and position.
type Token struct {
	Kind Kind
	Text string // raw source text (for STRING, without quotes and unescaped)
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, FLOAT, STRING, DATETIME:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}

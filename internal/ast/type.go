// Package ast defines the abstract syntax of the Scooter policy language
// (Scooter_p) and migration language (Scooter_m), which share a common
// expression core (Figure 3 of the paper).
package ast

import "fmt"

// TypeKind discriminates Scooter types.
type TypeKind int

const (
	// TInvalid marks a missing or erroneous type.
	TInvalid TypeKind = iota
	// TString is the String type.
	TString
	// TI64 is the 64-bit integer type.
	TI64
	// TF64 is the 64-bit float type.
	TF64
	// TBool is the boolean type.
	TBool
	// TDateTime is the datetime type (a UNIX timestamp at runtime).
	TDateTime
	// TId is Id(Model), a typed reference to a model instance.
	TId
	// TSet is Set(Elem).
	TSet
	// TOption is Option(Elem).
	TOption
	// TPrincipal is the type of principals; policy functions return
	// Set(Principal). Ids of @principal models and static principals
	// coerce to it.
	TPrincipal
	// TModel is the type of a model instance (the parameter of a policy
	// function). It appears only during type checking, never in schemas.
	TModel
	// TBlob is opaque binary data (§6.1 extension): storable and copyable
	// between fields, but never referenced inside policy functions, so the
	// verifier does not reason about its values.
	TBlob
)

// Type is a Scooter type. Model carries the model name for TId and TModel;
// Elem carries the element type for TSet and TOption.
type Type struct {
	Kind  TypeKind
	Model string
	Elem  *Type
}

// Convenience constructors.
var (
	StringType    = Type{Kind: TString}
	BlobType      = Type{Kind: TBlob}
	I64Type       = Type{Kind: TI64}
	F64Type       = Type{Kind: TF64}
	BoolType      = Type{Kind: TBool}
	DateTimeType  = Type{Kind: TDateTime}
	PrincipalType = Type{Kind: TPrincipal}
)

// IdType returns Id(model).
func IdType(model string) Type { return Type{Kind: TId, Model: model} }

// ModelType returns the instance type of model.
func ModelType(model string) Type { return Type{Kind: TModel, Model: model} }

// SetType returns Set(elem).
func SetType(elem Type) Type { return Type{Kind: TSet, Elem: &elem} }

// OptionType returns Option(elem).
func OptionType(elem Type) Type { return Type{Kind: TOption, Elem: &elem} }

// PrincipalSetType is Set(Principal), the return type of every policy function.
func PrincipalSetType() Type { return SetType(PrincipalType) }

// Equal reports structural type equality.
func (t Type) Equal(u Type) bool {
	if t.Kind != u.Kind || t.Model != u.Model {
		return false
	}
	if (t.Elem == nil) != (u.Elem == nil) {
		return false
	}
	if t.Elem != nil {
		return t.Elem.Equal(*u.Elem)
	}
	return true
}

// IsNumeric reports whether t supports numeric comparison.
func (t Type) IsNumeric() bool {
	return t.Kind == TI64 || t.Kind == TF64 || t.Kind == TDateTime
}

func (t Type) String() string {
	switch t.Kind {
	case TInvalid:
		return "<invalid>"
	case TString:
		return "String"
	case TI64:
		return "I64"
	case TF64:
		return "F64"
	case TBool:
		return "Bool"
	case TDateTime:
		return "DateTime"
	case TId:
		return fmt.Sprintf("Id(%s)", t.Model)
	case TSet:
		return fmt.Sprintf("Set(%s)", t.Elem)
	case TOption:
		return fmt.Sprintf("Option(%s)", t.Elem)
	case TPrincipal:
		return "Principal"
	case TModel:
		return t.Model
	case TBlob:
		return "Blob"
	}
	return fmt.Sprintf("Type(%d)", int(t.Kind))
}

// ReferencedModels returns the model names mentioned anywhere in t.
func (t Type) ReferencedModels() []string {
	var out []string
	var walk func(Type)
	walk = func(t Type) {
		if t.Model != "" {
			out = append(out, t.Model)
		}
		if t.Elem != nil {
			walk(*t.Elem)
		}
	}
	walk(t)
	return out
}

// ParseScalarType maps a type-name identifier to a scalar type, if known.
func ParseScalarType(name string) (Type, bool) {
	switch name {
	case "String":
		return StringType, true
	case "I64", "Int":
		return I64Type, true
	case "F64", "Float":
		return F64Type, true
	case "Bool":
		return BoolType, true
	case "DateTime":
		return DateTimeType, true
	case "Principal":
		return PrincipalType, true
	case "Blob":
		return BlobType, true
	}
	return Type{}, false
}

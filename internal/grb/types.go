// Package grb implements a GraphBLAS-style sparse linear algebra API: sparse
// matrices and vectors whose operations (matrix-vector, vector-matrix, and
// matrix-matrix product, element-wise combination, apply, select, assign,
// extract, reduce) are generalized over semirings, with masks, accumulators,
// and replace semantics.
//
// It is the study's stand-in for SuiteSparse:GraphBLAS and GaloisBLAS: the
// same kernels run on either a static-schedule executor (SuiteSparse's
// OpenMP style) or a work-stealing executor (the Galois runtime), selected
// by the Context. The LAGraph-style algorithms in internal/lagraph are
// written purely against this API.
package grb

// Number constrains the numeric element types the semiring constructors
// support. bool is handled by dedicated boolean semirings.
type Number interface {
	~int32 | ~int64 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// BinaryOp combines two values; used as semiring multiply and as accumulator.
type BinaryOp[T any] func(a, b T) T

// UnaryOp maps a value; used by Apply.
type UnaryOp[T any] func(a T) T

// IndexedPredicate decides whether to keep entry (i, j, v); used by Select.
// Vector selects pass j = 0.
type IndexedPredicate[T any] func(v T, i, j int) bool

// Monoid is an associative BinaryOp with identity. Terminal, when non-nil,
// is an absorbing value that lets reductions short-circuit (e.g. true for
// logical OR).
type Monoid[T any] struct {
	Op       BinaryOp[T]
	Identity T
	Terminal *T
}

// Reduce folds v into acc under the monoid.
func (m Monoid[T]) Reduce(acc, v T) T { return m.Op(acc, v) }

// Semiring pairs an additive monoid with a multiply operator, the
// generalization GraphBLAS uses in all its products.
//
// kind records which constructor built the semiring, so the product kernels
// can run a typed inner loop for it (typed.go). A literal Semiring — even
// one named like a constructor's — has the zero kind and always runs the
// generic loop over Add.Op and Mul. The typed loops ignore Add and Mul, so
// replacing either on a copy of a constructor's semiring is not supported:
// build a literal instead.
type Semiring[T any] struct {
	Name string
	Add  Monoid[T]
	Mul  BinaryOp[T]
	kind semiringKind
}

// PlusMonoid returns the (+, 0) monoid.
func PlusMonoid[T Number]() Monoid[T] {
	return Monoid[T]{Op: func(a, b T) T { return a + b }}
}

// MinMonoid returns the (min, +inf) monoid, where +inf is the maximum value
// representable in T for integers and +Inf for floats.
func MinMonoid[T Number]() Monoid[T] {
	return Monoid[T]{
		Op: func(a, b T) T {
			if a < b {
				return a
			}
			return b
		},
		Identity: MaxValue[T](),
	}
}

// MaxMonoid returns the (max, minimum-value) monoid.
func MaxMonoid[T Number]() Monoid[T] {
	return Monoid[T]{
		Op: func(a, b T) T {
			if a > b {
				return a
			}
			return b
		},
		Identity: MinValue[T](),
	}
}

// OrMonoid returns the (||, false) monoid with terminal true.
func OrMonoid() Monoid[bool] {
	t := true
	return Monoid[bool]{Op: func(a, b bool) bool { return a || b }, Terminal: &t}
}

// MaxValue returns the largest representable value of T ("infinity" for the
// min-plus semiring).
func MaxValue[T Number]() T {
	var z T
	switch any(z).(type) {
	case int32:
		return any(int32(1<<31 - 1)).(T)
	case int64:
		return any(int64(1<<63 - 1)).(T)
	case uint32:
		return any(uint32(1<<32 - 1)).(T)
	case uint64:
		return any(uint64(1<<64 - 1)).(T)
	case float32:
		return any(float32(3.4028235e38)).(T)
	case float64:
		return any(float64(1.7976931348623157e308)).(T)
	}
	panic("grb: MaxValue of unsupported type")
}

// MinValue returns the smallest representable value of T.
func MinValue[T Number]() T {
	var z T
	switch any(z).(type) {
	case int32:
		return any(int32(-1 << 31)).(T)
	case int64:
		return any(int64(-1 << 63)).(T)
	case uint32:
		return any(uint32(0)).(T)
	case uint64:
		return any(uint64(0)).(T)
	case float32:
		return any(float32(-3.4028235e38)).(T)
	case float64:
		return any(float64(-1.7976931348623157e308)).(T)
	}
	panic("grb: MinValue of unsupported type")
}

// PlusTimes returns the conventional arithmetic semiring (+, *).
func PlusTimes[T Number]() Semiring[T] {
	return Semiring[T]{
		Name: "plus_times",
		kind: kindPlusTimes,
		Add:  PlusMonoid[T](),
		Mul:  func(a, b T) T { return a * b },
	}
}

// MinPlus returns the tropical semiring (min, +) used by shortest paths.
// The multiply saturates so identity + weight does not wrap around.
func MinPlus[T Number]() Semiring[T] {
	inf := MaxValue[T]()
	return Semiring[T]{
		Name: "min_plus",
		Add:  MinMonoid[T](),
		Mul: func(a, b T) T {
			if a == inf || b == inf {
				return inf
			}
			c := a + b
			if c < a { // integer overflow clamps to inf
				return inf
			}
			return c
		},
	}
}

// MinSecond returns (min, second): multiply yields the second operand.
// FastSV's "minimum neighbor grandparent" step uses it.
func MinSecond[T Number]() Semiring[T] {
	return Semiring[T]{
		Name: "min_second",
		Add:  MinMonoid[T](),
		Mul:  func(a, b T) T { return b },
	}
}

// MinFirst returns (min, first): multiply yields the first operand.
func MinFirst[T Number]() Semiring[T] {
	return Semiring[T]{
		Name: "min_first",
		Add:  MinMonoid[T](),
		Mul:  func(a, b T) T { return a },
	}
}

// PlusPair returns (+, pair): multiply is the constant 1, so the product
// counts pattern intersections. Triangle counting's semiring.
func PlusPair[T Number]() Semiring[T] {
	return Semiring[T]{
		Name: "plus_pair",
		kind: kindPlusPair,
		Add:  PlusMonoid[T](),
		Mul:  func(a, b T) T { return 1 },
	}
}

// PlusSecond returns (+, second).
func PlusSecond[T Number]() Semiring[T] {
	return Semiring[T]{
		Name: "plus_second",
		Add:  PlusMonoid[T](),
		Mul:  func(a, b T) T { return b },
	}
}

// MaxSecond returns (max, second): multiply yields the second operand.
// In MxV products the second operand is the vector value.
func MaxSecond[T Number]() Semiring[T] {
	return Semiring[T]{
		Name: "max_second",
		Add:  MaxMonoid[T](),
		Mul:  func(a, b T) T { return b },
	}
}

// MaxFirst returns (max, first): multiply yields the first operand. In VxM
// products the first operand is the vector value, so Luby's
// maximal-independent-set algorithm uses it to find each vertex's maximum
// neighbor priority.
func MaxFirst[T Number]() Semiring[T] {
	return Semiring[T]{
		Name: "max_first",
		Add:  MaxMonoid[T](),
		Mul:  func(a, b T) T { return a },
	}
}

// LorLand returns the boolean (||, &&) semiring used by reachability and the
// study's bfs.
func LorLand() Semiring[bool] {
	return Semiring[bool]{
		Name: "lor_land",
		Add:  OrMonoid(),
		Mul:  func(a, b bool) bool { return a && b },
	}
}

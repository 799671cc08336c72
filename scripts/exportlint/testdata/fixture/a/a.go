// Package a is the surface under lint.
package a

import "errors"

// OnlyTested has no caller but tests: flagged.
func OnlyTested() {}

// OnlyBench has no caller but bench/: flagged.
func OnlyBench() {}

// Widget is used by cmd/tool.
type Widget struct {
	Part Part // the only way Part is reached: it passes
}

// Part is named only by Widget's exported field.
type Part struct{ N int }

// NewWidget is called by cmd/tool.
func NewWidget() *Widget {
	w := &Widget{}
	w.Spin()
	return w
}

// Spin is called only inside a: flagged.
func (w *Widget) Spin() {}

// Used is called by cmd/tool.
func (w *Widget) Used() {}

// ErrNotFound is matched by cmd/tool with errors.Is.
var ErrNotFound = errors.New("not found")

// NotFoundError is matched by cmd/tool with errors.As. Nothing calls its
// methods by name: error values reach Error, and errors.Is reaches Unwrap
// and Is.
type NotFoundError struct{ Key string }

func (e *NotFoundError) Error() string        { return "no " + e.Key }
func (e *NotFoundError) Unwrap() error        { return ErrNotFound }
func (e *NotFoundError) Is(target error) bool { return target == ErrNotFound }

// Find is called by cmd/tool.
func Find(key string) error { return &NotFoundError{Key: key} }

// Parked is allowlisted, but cmd/dsn-audit calls it now: no rule flags it,
// and its entry must go.
func Parked() {}

// Pending is allowlisted and has a caller, cmd/tool, but cmd/dsn-audit does
// not link it: rule 2 still flags it, so its entry stays.
func Pending() {}

// Reserved is allowlisted and still has no caller: it passes.
func Reserved() {}

// unlinked has no caller at all: rule 2 flags it.
func unlinked() {}

// Shape is what cmd/dsn-audit measures.
type Shape interface{ Area() int }

// Square is handed to Total as a Shape. Nothing calls Area by name: the
// interface call in Total reaches it, and it passes.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Total is called by cmd/dsn-audit.
func Total(shapes ...Shape) int {
	sum := 0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Counter is called by cmd/dsn-audit; the closure it returns links as
// Counter.func1.
func Counter() func() int {
	n := 0
	return func() int {
		n++
		return n
	}
}

// Largest links only as its instance Largest[go.shape.int].
func Largest[T int | string](xs ...T) T {
	var m T
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Stack's methods link as (*Stack[go.shape.int]).Push.
type Stack[T any] struct{ items []T }

// Push is called by cmd/dsn-audit.
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

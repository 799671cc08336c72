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

// Parked is allowlisted, but cmd/tool calls it now: its entry must go.
func Parked() {}

// Reserved is allowlisted and still has no caller: it passes.
func Reserved() {}

// Package atest is a test-support package: rules 1 and 2 skip it, and its
// references do not count for rule 1.
package atest

import "fixture/a"

// Build is exported and nothing calls it: it passes. Its call to
// a.OnlyTested does not count.
func Build() { a.OnlyTested() }

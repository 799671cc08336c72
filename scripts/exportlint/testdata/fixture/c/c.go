// Package c only has tests that call into a, and imports a test-support
// package from non-test code: rule 3 flags the import.
package c

import "fixture/a/atest"

var _ = atest.Build

package c

import (
	"testing"

	"fixture/a"
)

func TestCallsA(t *testing.T) { a.OnlyTested() }

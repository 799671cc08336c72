package a

import "testing"

func TestOnlyTested(t *testing.T) { OnlyTested() }

// Command dsn-audit is the fixture's service: rule 2 asks what it links.
package main

import (
	"errors"
	"fmt"

	"fixture/a"
)

func main() {
	w := a.NewWidget()
	w.Used()
	a.Parked()
	err := a.Find("x")
	next := a.Counter()
	var s a.Stack[int]
	s.Push(a.Largest(1, 2))
	fmt.Println(err, errors.Is(err, a.ErrNotFound), next(), a.Total(a.Square{Side: 2}))
}

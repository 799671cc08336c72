// Command tool is a caller that is not the service: its calls count for
// rule 1 and not for rule 2. A main package's own exported names are not
// linted.
package main

import (
	"errors"
	"fmt"

	"fixture/a"
)

// Helper is exported, in package main.
func Helper() {}

func main() {
	w := a.NewWidget()
	w.Used()
	a.Pending()
	err := a.Find("x")
	var nf *a.NotFoundError
	fmt.Println(w.Part.N, errors.Is(err, a.ErrNotFound), errors.As(err, &nf))
	Helper()
}

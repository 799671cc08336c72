// Command experiments may import a test-support package.
package main

import "fixture/a/atest"

func main() { atest.Build() }

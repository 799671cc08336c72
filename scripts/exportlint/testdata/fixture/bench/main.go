// Command bench is its own module; its calls do not count.
package main

import "fixture/a"

func main() { a.OnlyBench() }

// Package c only has tests that call into a.
package c

// Package lib declares one identifier per case of the export census.
package lib

// Orphan has no user.
func Orphan() {}

// TestOnly is used by a test file only.
func TestOnly() {}

// Kept has no user and is keep-listed.
func Kept() {}

// Named is printed by main, so it is a used fmt.Stringer.
type Named struct{ Base }

// Base gives Named its String method.
type Base struct{}

// String satisfies fmt.Stringer, promoted into Named.
func (Base) String() string { return "named" }

// Box is used only through an instantiation.
type Box[T any] struct{ V T }

// Get is called on an instantiation.
func (b Box[T]) Get() T { return b.V }

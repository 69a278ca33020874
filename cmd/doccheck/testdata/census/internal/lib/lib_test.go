package lib

import "testing"

func TestUse(t *testing.T) {
	TestOnly()
	New(Options{TestSet: 1})
}

package lib

import "testing"

func TestUse(t *testing.T) { TestOnly() }

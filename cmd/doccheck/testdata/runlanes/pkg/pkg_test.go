package pkg

import "testing"

func TestAlive(t *testing.T)        {}
func TestGroupOne(t *testing.T)     {}
func TestSteadyAllocs(t *testing.T) {}
func helperTestGone(t *testing.T)   {}

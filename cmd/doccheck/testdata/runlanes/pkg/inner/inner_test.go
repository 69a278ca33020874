package inner

import "testing"

func TestInner(t *testing.T) {}

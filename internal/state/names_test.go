package state

import (
	"testing"

	"streammine/internal/stm"
)

func TestAddrMapResolve(t *testing.T) {
	m := stm.NewMemory(256)
	f, err := NewField(m)
	if err != nil {
		t.Fatal(err)
	}
	f = f.Named(m, "total")
	arr, err := NewArray(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	arr = arr.Named(m, "counts")
	mp, err := NewMap(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	mp = mp.Named(m, "table")

	am := Names(m)
	cases := []struct {
		addr stm.Addr
		want string
	}{
		{f.addr, "total"},
		{arr.base, "counts[0]"},
		{arr.base + 5, "counts[5]"},
		{mp.base, "table[0]"},
		{mp.base + 4, "table[1]"}, // second bucket's key word
	}
	for _, c := range cases {
		if got := am.Describe(c.addr); got != c.want {
			t.Errorf("Describe(%d) = %q, want %q", c.addr, got, c.want)
		}
	}

	if got := am.Describe(200); got != "word@200" {
		t.Errorf("unregistered Describe = %q, want word@200", got)
	}
}

func TestAddrMapGeneratedNames(t *testing.T) {
	m := stm.NewMemory(16)
	a, err := NewField(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewField(m)
	if err != nil {
		t.Fatal(err)
	}
	am := Names(m)
	if got := am.Describe(a.addr); got != "field#0" {
		t.Errorf("first field = %q, want field#0", got)
	}
	if got := am.Describe(b.addr); got != "field#1" {
		t.Errorf("second field = %q, want field#1", got)
	}
}

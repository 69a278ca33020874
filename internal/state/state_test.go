package state

import (
	"errors"
	"testing"
	"testing/quick"

	"streammine/internal/stm"
)

// run executes fn inside a committed transaction.
func run(t *testing.T, m *stm.Memory, fn func(tx *stm.Tx) error) {
	t.Helper()
	tx := m.Begin(1)
	if err := fn(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Complete(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestField(t *testing.T) {
	m := stm.NewMemory(8)
	f, err := NewField(m)
	if err != nil {
		t.Fatal(err)
	}
	run(t, m, func(tx *stm.Tx) error {
		if v, err := f.Get(tx); err != nil || v != 0 {
			t.Fatalf("initial Get = %d, %v", v, err)
		}
		if err := f.Set(tx, 5); err != nil {
			return err
		}
		if v, err := f.Add(tx, 3); err != nil || v != 8 {
			t.Fatalf("Add = %d, %v", v, err)
		}
		return nil
	})
	run(t, m, func(tx *stm.Tx) error {
		v, err := f.Get(tx)
		if v != 8 {
			t.Fatalf("committed value = %d, want 8", v)
		}
		return err
	})
}

func TestArray(t *testing.T) {
	m := stm.NewMemory(32)
	a, err := NewArray(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 10 {
		t.Fatalf("Len = %d", a.Len())
	}
	run(t, m, func(tx *stm.Tx) error {
		for i := 0; i < 10; i++ {
			if err := a.Set(tx, i, uint64(i*i)); err != nil {
				return err
			}
		}
		if _, err := a.Add(tx, 4, 100); err != nil {
			return err
		}
		return nil
	})
	run(t, m, func(tx *stm.Tx) error {
		for i := 0; i < 10; i++ {
			want := uint64(i * i)
			if i == 4 {
				want += 100
			}
			v, err := a.Get(tx, i)
			if err != nil {
				return err
			}
			if v != want {
				t.Fatalf("a[%d] = %d, want %d", i, v, want)
			}
		}
		return nil
	})
}

func TestArrayBounds(t *testing.T) {
	m := stm.NewMemory(8)
	a, err := NewArray(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(1)
	defer tx.Abort()
	if _, err := a.Get(tx, -1); err == nil {
		t.Fatal("Get(-1) succeeded")
	}
	if _, err := a.Get(tx, 4); err == nil {
		t.Fatal("Get(len) succeeded")
	}
	if err := a.Set(tx, 4, 0); err == nil {
		t.Fatal("Set(len) succeeded")
	}
	if _, err := NewArray(m, 0); err == nil {
		t.Fatal("NewArray(0) succeeded")
	}
}

func TestMapPutGetDelete(t *testing.T) {
	m := stm.NewMemory(512)
	mp, err := NewMap(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	run(t, m, func(tx *stm.Tx) error {
		for k := uint64(0); k < 30; k++ {
			if err := mp.Put(tx, k, k*10); err != nil {
				return err
			}
		}
		return nil
	})
	run(t, m, func(tx *stm.Tx) error {
		for k := uint64(0); k < 30; k++ {
			v, ok, err := mp.Get(tx, k)
			if err != nil {
				return err
			}
			if !ok || v != k*10 {
				t.Fatalf("Get(%d) = %d, %v", k, v, ok)
			}
		}
		if _, ok, _ := mp.Get(tx, 999); ok {
			t.Fatal("found missing key")
		}
		return nil
	})
	// Update, then clear.
	run(t, m, func(tx *stm.Tx) error {
		if err := mp.Put(tx, 5, 999); err != nil {
			return err
		}
		if v, ok, err := mp.Get(tx, 5); err != nil || !ok || v != 999 {
			t.Fatalf("updated Get(5) = %d, %v, %v", v, ok, err)
		}
		return mp.Clear(tx)
	})
	run(t, m, func(tx *stm.Tx) error {
		for k := uint64(0); k < 30; k++ {
			if _, ok, _ := mp.Get(tx, k); ok {
				t.Fatalf("key %d present after Clear", k)
			}
		}
		return nil
	})
}

func TestMapFull(t *testing.T) {
	m := stm.NewMemory(64)
	mp, err := NewMap(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(1)
	defer tx.Abort()
	for k := uint64(0); k < 4; k++ {
		if err := mp.Put(tx, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := mp.Put(tx, 99, 99); !errors.Is(err, ErrFull) {
		t.Fatalf("Put into full map = %v, want ErrFull", err)
	}
	// Updating an existing key in a full map still works.
	if err := mp.Put(tx, 2, 222); err != nil {
		t.Fatalf("update in full map: %v", err)
	}
}

// TestQuickMapMatchesNativeMap property-tests Map against Go's map under a
// random sequence of puts and clears.
func TestQuickMapMatchesNativeMap(t *testing.T) {
	f := func(ops []struct {
		Key   uint64
		Val   uint64
		Clear bool
	}) bool {
		if len(ops) > 40 {
			ops = ops[:40]
		}
		m := stm.NewMemory(1024)
		mp, err := NewMap(m, 128)
		if err != nil {
			return false
		}
		model := make(map[uint64]uint64)
		tx := m.Begin(1)
		defer tx.Abort()
		for _, op := range ops {
			k := op.Key % 50 // force collisions
			if op.Clear {
				if mp.Clear(tx) != nil {
					return false
				}
				clear(model)
			} else {
				if err := mp.Put(tx, k, op.Val); err != nil {
					return false
				}
				model[k] = op.Val
			}
		}
		for k := uint64(0); k < 50; k++ {
			v, ok, err := mp.Get(tx, k)
			want, in := model[k]
			if err != nil || ok != in || v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStateIsolation verifies an aborted transaction's container updates
// are invisible.
func TestStateIsolation(t *testing.T) {
	m := stm.NewMemory(64)
	f, err := NewField(m)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := NewMap(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(1)
	if err := f.Set(tx, 77); err != nil {
		t.Fatal(err)
	}
	if err := mp.Put(tx, 1, 2); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	run(t, m, func(tx *stm.Tx) error {
		if v, _ := f.Get(tx); v != 0 {
			t.Fatalf("aborted field write visible: %d", v)
		}
		if _, ok, _ := mp.Get(tx, 1); ok {
			t.Fatal("aborted map write visible")
		}
		return nil
	})
}

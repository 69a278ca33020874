package state

import (
	"fmt"
	"sort"
	"sync"

	"streammine/internal/stm"
)

// AddrMap maps raw STM addresses back to the named state containers that
// allocated them, so conflict witnesses read as "counts[3]" instead of an
// opaque word index. Every container constructor registers its address
// range here automatically (with a generated name like "array#1"); the
// Named methods replace the generated name with an operator-chosen one.
//
// One AddrMap belongs to one Memory, attached via Memory.SetLabelSpace.
// Registration happens at Init time and resolution on profiler drains, so
// neither touches the transactional hot path.
type AddrMap struct {
	mu      sync.RWMutex
	regions []region
	counts  map[string]int
}

// region is one registered address range. Addresses resolve to bucket
// (addr - base) / stride.
type region struct {
	base   stm.Addr
	words  int
	stride int
	name   string
}

// Names returns the AddrMap attached to m, creating it on first use.
func Names(m *stm.Memory) *AddrMap {
	if am, ok := m.LabelSpace().(*AddrMap); ok {
		return am
	}
	am := &AddrMap{counts: make(map[string]int)}
	// Concurrent first registration is init-time misuse; last store wins
	// and loses at most the other goroutine's generated names.
	m.SetLabelSpace(am)
	return am
}

// add registers a region under a generated "<kind>#<n>" name.
func (am *AddrMap) add(kind string, base stm.Addr, words, stride int) {
	am.mu.Lock()
	defer am.mu.Unlock()
	n := am.counts[kind]
	am.counts[kind] = n + 1
	am.regions = append(am.regions, region{
		base:   base,
		words:  words,
		stride: stride,
		name:   fmt.Sprintf("%s#%d", kind, n),
	})
	sort.Slice(am.regions, func(i, j int) bool { return am.regions[i].base < am.regions[j].base })
}

// rename replaces the name of the region starting at base.
func (am *AddrMap) rename(base stm.Addr, name string) {
	am.mu.Lock()
	defer am.mu.Unlock()
	for i := range am.regions {
		if am.regions[i].base == base {
			am.regions[i].name = name
			return
		}
	}
}

// lookup finds the region containing addr. Caller holds am.mu.
func (am *AddrMap) lookup(addr stm.Addr) (region, bool) {
	i := sort.Search(len(am.regions), func(i int) bool {
		return am.regions[i].base+stm.Addr(am.regions[i].words) > addr
	})
	if i >= len(am.regions) || addr < am.regions[i].base {
		return region{}, false
	}
	return am.regions[i], true
}

// Describe renders an address as "name[bucket]" ("name" for single-bucket
// containers, "word@N" when unregistered). It is the
// resolver the profiler installs per node.
func (am *AddrMap) Describe(addr stm.Addr) string {
	am.mu.RLock()
	r, ok := am.lookup(addr)
	am.mu.RUnlock()
	if !ok {
		return fmt.Sprintf("word@%d", addr)
	}
	if r.words <= r.stride {
		return r.name
	}
	return fmt.Sprintf("%s[%d]", r.name, int(addr-r.base)/r.stride)
}

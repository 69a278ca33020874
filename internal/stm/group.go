package stm

// CommitGroup commits txs in order under a single commit-gate acquisition,
// each at its own commit version: a group is exactly the sequence of Commit
// calls it replaces, and amortizes only the gate. It returns the number of
// transactions committed and the error that stopped the group (nil when
// all committed). Transactions before the returned index are committed; the
// transaction at the index saw the returned error (ErrDepsOpen: retry
// later; ErrConflict: it was aborted and must be re-executed); transactions
// after it were not touched.
//
// One version for the whole group would be unsound: a reader that took an
// address from one member validates by comparing the slot's version with
// that member's commit version, so a later member's overwrite at the same
// version would pass for the value the reader saw (DESIGN.md, S6).
func (m *Memory) CommitGroup(txs []*Tx) (int, error) {
	m.commitGate.RLock()
	defer m.commitGate.RUnlock()
	for i, tx := range txs {
		if err := tx.commitPrepare(); err != nil {
			return i, err
		}
		tx.commitApplyLocked(m.clock.Add(1))
	}
	return len(txs), nil
}

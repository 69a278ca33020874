package stm

// CommitGroup commits txs in order under a single commit-gate acquisition
// and a single version-clock bump: every transaction in the group shares
// one commit version. It returns the number of transactions committed and
// the error that stopped the group (nil when all committed). Transactions
// before the returned index are committed exactly as if Commit had been
// called on each; the transaction at the index saw the returned error
// (ErrDepsOpen: retry later; ErrConflict: it was aborted and must be
// re-executed); transactions after it were not touched.
//
// The shared commit version is safe under the engine's commit discipline
// (commits within one Memory are issued strictly in event-timestamp
// order): while a later group member still buffers an address, it remains
// chained in the lock array, so no concurrent reader can take the
// committed-memory read path for that address — it either reads the
// member's buffer speculatively (acquiring a dependency) or retries while
// the member is mid-commit. A reader that read an earlier member's value
// therefore never validates successfully against a later same-version
// overwrite it could not have seen. Per-transaction dependency checks,
// read-set validation and conflict witnesses are preserved exactly;
// CommitGroup amortizes only the gate acquisition and the clock bump.
func (m *Memory) CommitGroup(txs []*Tx) (int, error) {
	if len(txs) == 0 {
		return 0, nil
	}
	if len(txs) == 1 {
		if err := txs[0].Commit(); err != nil {
			return 0, err
		}
		return 1, nil
	}
	m.commitGate.RLock()
	version := m.clock.Add(1)
	for i, tx := range txs {
		if err := tx.commitPrepare(); err != nil {
			m.commitGate.RUnlock()
			return i, err
		}
		tx.commitApplyLocked(version)
	}
	m.commitGate.RUnlock()
	return len(txs), nil
}

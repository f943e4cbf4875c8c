package traffic

// Hooks for the external test package (shared_suite_test.go), which
// drives the memo through rlnoc.RunSuite.

// ResetShared empties the process-wide memo.
func ResetShared() { shared = newMemo(sharedCapBytes) }

// SharedEntries reports how many traces the process-wide memo holds.
func SharedEntries() int {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	return len(shared.entries)
}

package joza

import (
	"fmt"
	"sync"

	"joza/internal/installer"
)

// Manager couples a Guard to the application's source tree: the initial
// installation extracts the trusted fragments, and Refresh re-extracts
// only changed files — picking up application updates and newly installed
// plugins, per the paper's preprocessing component — and atomically swaps
// a rebuilt analysis snapshot into the Guard's engine. The hot path never
// takes a lock: a check loads the snapshot once, and in-flight checks
// finish on the snapshot they started with.
//
// Metrics counters, the tracer and the observability listener belong to
// the engine and survive fragment-set swaps. Guard() returns the same
// Guard for the Manager's lifetime; SnapshotVersion tells which
// generation is serving.
type Manager struct {
	ins   *installer.Installer
	guard *Guard

	// mu serializes Refresh; pending records that the source tree changed
	// but the rebuild failed, so the next Refresh retries instead of
	// leaving the old snapshot serving stale fragments forever.
	mu      sync.Mutex
	pending bool
}

// NewManager installs over dir (extracting from files with the given
// extensions; none means ".php") and builds the initial Guard with opts.
// Do not pass WithFragments/WithFragmentSet in opts; the Manager supplies
// the fragment set.
func NewManager(dir string, exts []string, opts ...Option) (*Manager, error) {
	var insOpts []installer.Option
	if len(exts) > 0 {
		insOpts = append(insOpts, installer.WithExtensions(exts...))
	}
	ins, err := installer.New(dir, insOpts...)
	if err != nil {
		return nil, fmt.Errorf("joza: install: %w", err)
	}
	g, err := New(append([]Option{WithFragmentSet(ins.Set())}, opts...)...)
	if err != nil {
		return nil, fmt.Errorf("joza: rebuild guard: %w", err)
	}
	return &Manager{ins: ins, guard: g}, nil
}

// Guard returns the Manager's Guard, which always checks against the
// current snapshot.
func (m *Manager) Guard() *Guard { return m.guard }

// FileCount returns the number of tracked source files.
func (m *Manager) FileCount() int { return m.ins.FileCount() }

// Metrics returns the current metrics snapshot. Check counters are shared
// across rebuilds; cache and matcher counters reflect the current
// snapshot's analyzers.
func (m *Manager) Metrics() Metrics { return m.guard.Metrics() }

// SnapshotVersion returns the content-derived version of the analysis
// snapshot currently serving checks (it changes on every Refresh that
// swaps in new content). See Guard.SnapshotVersion.
func (m *Manager) SnapshotVersion() string { return m.guard.SnapshotVersion() }

// Refresh rescans the source tree; when files were added, modified or
// removed — or an earlier rebuild failed and is still owed — it rebuilds
// the analysis snapshot and swaps it into the engine. It reports whether
// a swap happened.
//
// A failed rebuild keeps the change pending: the old snapshot stays in
// service (fail-open on stale fragments rather than taking the
// application down), and every subsequent Refresh retries the rebuild
// until it succeeds, even if the source tree does not change again.
func (m *Manager) Refresh() (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed, err := m.ins.Refresh()
	if err != nil {
		return false, fmt.Errorf("joza: refresh: %w", err)
	}
	if !changed && !m.pending {
		return false, nil
	}
	m.pending = true
	if err := m.guard.swapFragmentSet(m.ins.Set()); err != nil {
		return false, fmt.Errorf("joza: rebuild guard: %w", err)
	}
	m.pending = false
	return true, nil
}

package engine

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"joza/internal/fragments"
	"joza/internal/installer"
	"joza/internal/nti"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqltoken"
)

// ErrNoFragments is returned by Build when the PTI stage is enabled over
// an empty fragment set: every critical token would go uncovered.
var ErrNoFragments = errors.New("PTI requires SQL-bearing fragments; supply some or disable the PTI stage")

// Spec is every input of one analysis generation: Build turns it into a
// Snapshot. The fields that can change a verdict are hashed into the
// snapshot's version (ComputeVersion); the cache settings and the
// analyzer option slices only change how fast a verdict is reached.
type Spec struct {
	// Set is the trusted fragment set behind the PTI stage.
	Set *fragments.Set
	// Dialect is the SQL dialect every stage lexes under.
	Dialect sqltoken.Dialect
	// NoPTI and NoNTI leave the PTI and NTI stages out.
	NoPTI, NoNTI bool
	// Threshold is the NTI difference-ratio threshold.
	Threshold float64
	// StrictPolicy makes both analyzers flag input-derived identifiers
	// too (the Ray–Ligatti attack definition).
	StrictPolicy bool
	// Limits bounds the work of one check.
	Limits Limits

	// The profile stage's source, first match wins: a learning Recorder,
	// a store file loaded on every build, or a loaded store. Each must
	// compute skeletons under Dialect.
	Recorder    *profile.Recorder
	ProfileFile string
	Profiles    *profile.Store
	// StrictProfiles makes enforcement flag queries from call sites that
	// have no profile at all.
	StrictProfiles bool

	// CacheMode and CacheCapacity configure the PTI caches.
	CacheMode     pti.CacheMode
	CacheCapacity int
	// PTIOptions and NTIOptions reach the analyzers unversioned: they are
	// for ablation switches that keep verdicts, such as the naive or
	// Sellers matcher.
	PTIOptions []pti.Option
	NTIOptions []nti.Option
}

// profileStore returns the store spec's profile source resolves to (nil
// for none or a learning recorder), loading a store file afresh.
func (spec *Spec) profileStore() (*profile.Store, error) {
	switch {
	case spec.Recorder != nil:
		if got := spec.Recorder.Dialect(); got != spec.Dialect {
			return nil, fmt.Errorf("profile recorder computes %s-dialect skeletons, snapshot runs %s", got, spec.Dialect)
		}
		return nil, nil
	case spec.ProfileFile != "":
		st, err := profile.Load(spec.ProfileFile)
		if err != nil {
			return nil, err
		}
		if err := st.ForDialect(spec.Dialect); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.ProfileFile, err)
		}
		return st, nil
	case spec.Profiles != nil:
		if err := spec.Profiles.ForDialect(spec.Dialect); err != nil {
			return nil, err
		}
		return spec.Profiles, nil
	}
	return nil, nil
}

// Build validates spec and assembles its snapshot: the PTI stage, then
// the profile stage, then NTI, all under spec's dialect and limits, with
// the version ComputeVersion derives. NTI runs last because it lexes only
// when an input matches the query, and then reuses the tokens PTI or the
// profile stage published; the verdict is an OR over stages, so the order
// does not change it.
func Build(spec Spec) (*Snapshot, error) {
	if !spec.Dialect.Valid() {
		return nil, fmt.Errorf("invalid dialect %v", spec.Dialect)
	}
	if spec.NoPTI && spec.NoNTI && spec.Recorder == nil && spec.ProfileFile == "" && spec.Profiles == nil {
		return nil, errors.New("both analyzers disabled")
	}
	if !spec.NoPTI && (spec.Set == nil || spec.Set.Len() == 0) {
		return nil, ErrNoFragments
	}
	profiles, err := spec.profileStore()
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{
		Set:      spec.Set,
		Dialect:  spec.Dialect,
		Profiles: profiles,
		Limits:   spec.Limits,
		Version:  ComputeVersion(spec, profiles),
	}
	if !spec.NoPTI {
		opts := []pti.Option{pti.WithDialect(spec.Dialect)}
		if spec.StrictPolicy {
			opts = append(opts, pti.WithStrictPolicy())
		}
		if spec.Limits.PTITokens > 0 {
			opts = append(opts, pti.WithMaxTokens(spec.Limits.PTITokens))
		}
		snap.PTI = pti.NewCached(pti.New(spec.Set, append(opts, spec.PTIOptions...)...), spec.CacheMode, spec.CacheCapacity)
		snap.Analyzers = append(snap.Analyzers, PTIStage{Analyzer: snap.PTI})
	}
	if spec.Recorder != nil || profiles != nil {
		snap.Analyzers = append(snap.Analyzers, ProfileStage{Store: profiles, Recorder: spec.Recorder, BlockUnknownSites: spec.StrictProfiles})
	}
	if !spec.NoNTI {
		opts := []nti.Option{nti.WithThreshold(spec.Threshold), nti.WithDialect(spec.Dialect)}
		if spec.StrictPolicy {
			opts = append(opts, nti.WithStrictPolicy())
		}
		if spec.Limits.NTIDPCells > 0 {
			opts = append(opts, nti.WithDPCellBudget(spec.Limits.NTIDPCells))
		}
		snap.NTI = nti.New(append(opts, spec.NTIOptions...)...)
		snap.Analyzers = append(snap.Analyzers, NTIStage{Analyzer: snap.NTI})
	}
	return snap, nil
}

// Refresher is the refresh loop of one analysis generation's sources:
// re-extract the source tree, reload a changed profile file, rebuild,
// swap. A rebuild that fails leaves the change pending, so every later
// pass retries it until one succeeds, while the prior snapshot keeps
// serving. Safe for concurrent use; passes run one at a time.
type Refresher struct {
	spec Spec
	// ins re-extracts the fragment set; nil when spec.Set is fixed.
	ins *installer.Installer

	mu      sync.Mutex
	pending bool
	// profMod is the profile file's modification time as of the last
	// build (zero when it could not be read).
	profMod time.Time
}

// NewRefresher returns the refresh loop over spec, whose fragment set
// ins extracts and re-extracts (nil keeps spec.Set).
func NewRefresher(spec Spec, ins *installer.Installer) *Refresher {
	if ins != nil {
		spec.Set = ins.Set()
	}
	return &Refresher{spec: spec, ins: ins}
}

// Build re-extracts the source tree and builds a snapshot whether or not
// anything changed, without swapping: the first generation, and the
// rollout's prepare verb, whose commit swaps. The change it builds is
// consumed, as by a Refresh.
func (r *Refresher) Build() (*Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next(true)
}

// Refresh runs one pass of the loop. It re-extracts the source tree and,
// when the tree changed, the profile file's modification time moved or an
// earlier rebuild failed, rebuilds and hands the snapshot to swap. It
// reports whether it swapped.
func (r *Refresher) Refresh(swap func(*Snapshot)) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap, err := r.next(false)
	if snap == nil || err != nil {
		return false, err
	}
	swap(snap)
	return true, nil
}

// next re-extracts and, when forced or something changed, rebuilds; a nil
// snapshot with a nil error means nothing changed. Only an unforced
// rebuild sets or clears the pending retry: a forced one is not swapped
// in by the loop.
func (r *Refresher) next(force bool) (*Snapshot, error) {
	changed := r.pending
	if r.ins != nil {
		c, err := r.ins.Refresh()
		if err != nil {
			return nil, err
		}
		changed = changed || c
		r.spec.Set = r.ins.Set()
	}
	var mod time.Time
	if r.spec.ProfileFile != "" {
		if fi, err := os.Stat(r.spec.ProfileFile); err == nil {
			mod = fi.ModTime()
		}
		changed = changed || !mod.Equal(r.profMod)
	}
	if !changed && !force {
		return nil, nil
	}
	// mod was read before the load, so a file rewritten during it is
	// rebuilt again next pass.
	r.profMod = mod
	snap, err := Build(r.spec)
	if !force {
		r.pending = err != nil
	}
	return snap, err
}

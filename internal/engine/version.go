package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"joza/internal/fragments"
	"joza/internal/profile"
	"joza/internal/sqltoken"
)

// versionHeader namespaces the snapshot-version hash so a future change to
// the hashed layout produces versions that cannot collide with today's.
const versionHeader = "joza-snapshot-v1"

// VersionLen is the length of a snapshot version string: the leading hex
// of a SHA-256 over the snapshot's analysis inputs. 16 hex characters (64
// bits) make accidental collisions between policy generations negligible
// while keeping the version readable in logs, metrics labels and wire
// frames.
const VersionLen = 16

// ComputeVersion derives the content-addressed version of an analysis
// snapshot: a stable hash over everything that changes what the pipeline
// decides — the trusted fragment set, the query-skeleton profile store,
// the SQL dialect, and the pre-analysis limits (passed as an opaque tag by
// the owner, since limit knobs differ per front door).
//
// The hash is order-insensitive over fragments (two sets holding the same
// texts version identically regardless of extraction order) and treats a
// nil set or store as empty. Every replica of a fleet built from one
// extraction hashes the same inputs, so the fleet agrees on its version
// without a coordinator.
func ComputeVersion(set *fragments.Set, profiles *profile.Store, d sqltoken.Dialect, limitsTag string) string {
	h := sha256.New()
	var n [8]byte
	write := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	write([]byte(versionHeader))
	write([]byte(d.String()))
	write([]byte(limitsTag))
	if set != nil {
		frags := set.Fragments()
		sort.Strings(frags)
		binary.LittleEndian.PutUint64(n[:], uint64(len(frags)))
		h.Write(n[:])
		for _, f := range frags {
			write([]byte(f))
		}
	} else {
		write(nil)
	}
	if profiles != nil {
		// Store serialization is versioned and bit-identical for equal
		// content, so hashing the bytes is hashing the trained profile.
		write(profiles.Bytes())
	} else {
		write(nil)
	}
	return hex.EncodeToString(h.Sum(nil))[:VersionLen]
}

package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"joza/internal/profile"
)

// versionHeader namespaces the snapshot-version hash; it changes with the
// hashed layout, so versions of two layouts cannot collide.
const versionHeader = "joza-snapshot-v2"

// VersionLen is the length of a snapshot version string: the leading hex
// of a SHA-256 over the snapshot's analysis inputs. 16 hex characters (64
// bits) make accidental collisions between policy generations negligible
// while keeping the version readable in logs, metrics labels and wire
// frames.
const VersionLen = 16

// ComputeVersion derives the content-addressed version of the snapshot
// Build makes from spec, whose profile source resolved to profiles: a
// stable hash over every input that can change a verdict — the trusted
// fragment set, the profile store and whether unknown sites are blocked,
// the dialect, which of the PTI and NTI stages run, the NTI threshold,
// the strict policy and all four limits. Settings that only change how
// fast a verdict is reached — the PTI cache mode and capacity and the
// analyzer option slices — are left out, so front doors that differ only
// in them agree on the version.
//
// The hash is order-insensitive over fragments (two sets holding the same
// texts version identically regardless of extraction order) and treats a
// nil set or store as empty. Every replica of a fleet built from one
// extraction with one configuration hashes the same inputs, so the fleet
// agrees on its version without a coordinator.
func ComputeVersion(spec Spec, profiles *profile.Store) string {
	h := sha256.New()
	var n [8]byte
	write := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	write([]byte(versionHeader))
	write([]byte(spec.Dialect.String()))
	write(fmt.Appendf(nil, "pti-off=%t nti-off=%t threshold=%v strict=%t strict-profiles=%t %+v",
		spec.NoPTI, spec.NoNTI, spec.Threshold, spec.StrictPolicy, spec.StrictProfiles, spec.Limits))
	if spec.Set != nil {
		frags := spec.Set.Fragments()
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

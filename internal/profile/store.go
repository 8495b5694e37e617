package profile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"joza/internal/sqltoken"
)

// Header is the first line of the v1 serialized profile format. The
// version suffix lets the format evolve while old stores keep loading.
// v1 has no dialect directive and always means MySQL; MySQL stores keep
// serializing as v1 so files written before dialects existed round-trip
// bit-identically.
const Header = "joza-profile v1"

// HeaderV2 is the first line of the v2 format: v1 plus a mandatory
// `dialect "<name>"` directive before the first site. Only non-MySQL
// stores serialize as v2.
const HeaderV2 = "joza-profile v2"

// Store is an immutable set of (call site → query skeletons) profiles, the
// enforcement side of the subsystem. It is loaded into an engine Snapshot
// and shared by every in-flight check without locking, exactly like the
// fragment set: build (or Parse) a Store, hand it to the snapshot, never
// mutate it. A nil *Store behaves as empty.
type Store struct {
	// sites maps each call site to its skeleton set, every skeleton keyed
	// to itself so a byte-keyed probe can return the stored copy.
	sites map[string]map[string]string
	// skeletons is the total skeleton count across sites, for stats.
	skeletons int
	// dialect is the SQL dialect the skeletons were computed under. The
	// zero value is sqltoken.MySQL.
	dialect sqltoken.Dialect
}

// Dialect returns the SQL dialect the store's skeletons were computed
// under. A nil store reports MySQL.
func (s *Store) Dialect() sqltoken.Dialect {
	if s == nil {
		return sqltoken.MySQL
	}
	return s.dialect
}

// ForDialect verifies the store was trained under dialect d. Enforcing a
// store against queries lexed under a different dialect would compare
// incommensurable skeletons — every lookup could silently miss — so
// loaders must treat a mismatch as a configuration error, not a warning.
func (s *Store) ForDialect(d sqltoken.Dialect) error {
	if got := s.Dialect(); got != d {
		return fmt.Errorf("profile: store trained under dialect %s, guard runs %s", got, d)
	}
	return nil
}

// Lookup classifies one (site, skeleton) pair against the store.
type Lookup int

const (
	// SkeletonSeen: the site issued this skeleton during training.
	SkeletonSeen Lookup = iota
	// SkeletonUnseen: the site is profiled but never issued this skeleton
	// — the unseen-skeleton signal the enforcement stage flags.
	SkeletonUnseen
	// SiteUnknown: the site has no profile at all. Enforcement treats this
	// leniently by default (coverage gaps in training must not take the
	// application down) and strictly on request.
	SiteUnknown
)

// Lookup classifies skeleton against site's profile.
func (s *Store) Lookup(site, skeleton string) Lookup {
	if s == nil {
		return SiteUnknown
	}
	sk, ok := s.sites[site]
	if !ok {
		return SiteUnknown
	}
	if _, ok := sk[skeleton]; ok {
		return SkeletonSeen
	}
	return SkeletonUnseen
}

// LookupBytes classifies a skeleton held in a byte buffer, such as one
// AppendSkeleton built, against site's profile. For a seen skeleton it
// also returns the store's own copy, so the caller can keep the skeleton
// without allocating; otherwise the string is "".
func (s *Store) LookupBytes(site string, skeleton []byte) (Lookup, string) {
	if s == nil {
		return SiteUnknown, ""
	}
	sk, ok := s.sites[site]
	if !ok {
		return SiteUnknown, ""
	}
	if stored, ok := sk[string(skeleton)]; ok {
		return SkeletonSeen, stored
	}
	return SkeletonUnseen, ""
}

// Sites returns the number of profiled call sites.
func (s *Store) Sites() int {
	if s == nil {
		return 0
	}
	return len(s.sites)
}

// Skeletons returns the total skeleton count across all sites.
func (s *Store) Skeletons() int {
	if s == nil {
		return 0
	}
	return s.skeletons
}

// Serialize writes the store in the versioned text format: the header
// line, then for each site a `site` line followed by one `sk` line per
// skeleton, both quoted. Output is deterministic — sites and skeletons in
// sorted order — so serializing a parsed store reproduces its input
// bit-identically.
func (s *Store) Serialize(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if s.Dialect() == sqltoken.MySQL {
		// MySQL stores stay v1, byte-for-byte what pre-dialect builds wrote.
		if _, err := fmt.Fprintln(bw, Header); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintln(bw, HeaderV2); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "dialect %s\n", strconv.Quote(s.Dialect().String())); err != nil {
			return err
		}
	}
	if s != nil {
		sites := make([]string, 0, len(s.sites))
		for site := range s.sites {
			sites = append(sites, site)
		}
		sort.Strings(sites)
		for _, site := range sites {
			fmt.Fprintf(bw, "site %s\n", strconv.Quote(site))
			sks := make([]string, 0, len(s.sites[site]))
			for sk := range s.sites[site] {
				sks = append(sks, sk)
			}
			sort.Strings(sks)
			for _, sk := range sks {
				fmt.Fprintf(bw, "sk %s\n", strconv.Quote(sk))
			}
		}
	}
	return bw.Flush()
}

// Bytes serializes the store to memory.
func (s *Store) Bytes() []byte {
	var buf bytes.Buffer
	_ = s.Serialize(&buf) // bytes.Buffer writes cannot fail
	return buf.Bytes()
}

// Parse reads a serialized store. It is strict: a bad header, an
// unquotable line, an `sk` before any `site`, or trailing garbage fail
// with a line-numbered error, so a corrupt profile file is refused rather
// than silently enforced half-loaded.
func Parse(data []byte) (*Store, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("profile: empty input (want %q header)", Header)
	}
	version := 0
	switch sc.Text() {
	case Header:
		version = 1
	case HeaderV2:
		version = 2
	default:
		return nil, fmt.Errorf("profile: bad header %q (want %q or %q)", sc.Text(), Header, HeaderV2)
	}
	st := &Store{sites: make(map[string]map[string]string)}
	sawDialect := false
	var cur map[string]string
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case strings.HasPrefix(text, "dialect "):
			if version < 2 {
				return nil, fmt.Errorf("profile: line %d: dialect directive in a v1 store", line)
			}
			if sawDialect {
				return nil, fmt.Errorf("profile: line %d: duplicate dialect directive", line)
			}
			if cur != nil {
				return nil, fmt.Errorf("profile: line %d: dialect directive after first site", line)
			}
			name, err := strconv.Unquote(text[len("dialect "):])
			if err != nil {
				return nil, fmt.Errorf("profile: line %d: bad dialect: %v", line, err)
			}
			d, err := sqltoken.ParseDialect(name)
			if err != nil {
				return nil, fmt.Errorf("profile: line %d: %v", line, err)
			}
			st.dialect = d
			sawDialect = true
		case strings.HasPrefix(text, "site "):
			site, err := strconv.Unquote(text[len("site "):])
			if err != nil {
				return nil, fmt.Errorf("profile: line %d: bad site: %v", line, err)
			}
			if _, dup := st.sites[site]; dup {
				return nil, fmt.Errorf("profile: line %d: duplicate site %q", line, site)
			}
			cur = make(map[string]string)
			st.sites[site] = cur
		case strings.HasPrefix(text, "sk "):
			if cur == nil {
				return nil, fmt.Errorf("profile: line %d: skeleton before any site", line)
			}
			sk, err := strconv.Unquote(text[len("sk "):])
			if err != nil {
				return nil, fmt.Errorf("profile: line %d: bad skeleton: %v", line, err)
			}
			if _, dup := cur[sk]; !dup {
				cur[sk] = sk
				st.skeletons++
			}
		case text == "":
			// Blank lines are tolerated (hand-edited files).
		default:
			return nil, fmt.Errorf("profile: line %d: unrecognized directive %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if version == 2 && !sawDialect {
		return nil, fmt.Errorf("profile: v2 store is missing its dialect directive")
	}
	return st, nil
}

// Load reads and parses the profile store at path.
func Load(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	st, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return st, nil
}

// Recorder accumulates profiles during the learning phase. It is safe for
// concurrent use — learning runs against live benign traffic — and is
// kept separate from Store so enforcement's hot path stays lock-free.
type Recorder struct {
	mu      sync.Mutex
	sites   map[string]map[string]struct{}
	dialect sqltoken.Dialect
}

// NewRecorder returns an empty Recorder computing MySQL-dialect skeletons.
func NewRecorder() *Recorder {
	return NewRecorderDialect(sqltoken.MySQL)
}

// NewRecorderDialect returns an empty Recorder computing skeletons under
// dialect d; the Store it freezes records d in its header.
func NewRecorderDialect(d sqltoken.Dialect) *Recorder {
	return &Recorder{sites: make(map[string]map[string]struct{}), dialect: d}
}

// Dialect returns the SQL dialect the recorder computes skeletons under.
func (r *Recorder) Dialect() sqltoken.Dialect { return r.dialect }

// Record computes query's skeleton and records it for site, returning the
// skeleton. Empty sites are ignored: without a call-site identity the
// observation profiles nothing.
func (r *Recorder) Record(site, query string) string {
	sk := SkeletonDialect(r.dialect, query)
	r.RecordSkeleton(site, sk)
	return sk
}

// RecordSkeleton records an already-computed skeleton for site.
func (r *Recorder) RecordSkeleton(site, skeleton string) {
	if site == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.sites[site]
	if !ok {
		m = make(map[string]struct{})
		r.sites[site] = m
	}
	m[skeleton] = struct{}{}
}

// Len returns the profiled site and total skeleton counts so far.
func (r *Recorder) Len() (sites, skeletons int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.sites {
		skeletons += len(m)
	}
	return len(r.sites), skeletons
}

// Store freezes the recorded profiles into an immutable Store. The
// Recorder keeps recording afterwards; call again for a newer freeze.
func (r *Recorder) Store() *Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &Store{sites: make(map[string]map[string]string, len(r.sites)), dialect: r.dialect}
	for site, m := range r.sites {
		cp := make(map[string]string, len(m))
		for sk := range m {
			cp[sk] = sk
		}
		st.sites[site] = cp
		st.skeletons += len(m)
	}
	return st
}

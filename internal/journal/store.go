package journal

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"oddci/internal/appimage"
	"oddci/internal/obs"
	"oddci/internal/simtime"
)

// File names inside a state directory. The journal is the one state
// file: records go on its end, and Compact replaces it whole, as the
// key is written (a temp file, fsynced, renamed over, the directory
// fsynced). A version-2 dir kept a snapshot in v2SnapFile; Load refuses
// a dir that holds one.
const (
	journalFile = "state.journal"
	keyFile     = "controller.key"
	v2SnapFile  = "state.snap"
)

// compactEvery is the record count since the last compaction that arms
// the next one.
const compactEvery = 256

// Options tunes a Store.
type Options struct {
	// Obs, when set, instruments the store: append/byte/fsync/
	// compaction/error counters, a record-count gauge, replay timing,
	// and a "journal-stalled" health check that fails once any append
	// or compaction has errored.
	Obs *obs.Registry
	// Clock stamps replay timing (default: the wall clock). Injecting
	// the deployment's simtime.Clock keeps telemetry byte-identical
	// under deterministic replay — a frozen sim clock must never leak
	// host time into the metrics.
	Clock simtime.Clock
}

// Store persists a journal file in a directory. It is safe
// for concurrent use; the Controller appends from its maintenance loop
// and API paths.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	recs    int // journal records since last compaction
	lastErr error
	closed  bool

	// size is the file's length up to its last whole, written record (0:
	// not started). reset asks that the file be cut back to size, and
	// started with a header at 0, before it takes another record: Load
	// found it empty or ending in a torn append, or an append failed
	// partway. syncDir asks that the directory be fsynced first: a
	// compaction renamed a new file in and its directory fsync failed,
	// and no record is acknowledged on the new file before the rename is
	// durable.
	size           int64
	reset, syncDir bool

	// held is the set of chunk digests the file stores, so an append
	// writes only the chunks it lacks. It is nil until Load or Compact
	// learns it.
	held map[appimage.Digest]struct{}

	// baseBytes is the state the file is measured against: the instances
	// the last compaction wrote or, in a file never compacted, its first
	// record, which a compaction would write too. recBytes counts the
	// bytes after it.
	baseBytes, recBytes int64

	appends     *obs.Counter
	bytes       *obs.Counter
	fsyncs      *obs.Counter
	compactions *obs.Counter
	errored     *obs.Counter
	replayed    *obs.Counter
	replayTime  *obs.Histogram
}

// Open creates or reuses dir and opens the journal for appending. It
// does not replay; call Load (or Compact) before the first Append.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Clock == nil {
		opts.Clock = simtime.NewReal()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: state dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	s := &Store{dir: dir, opts: opts, f: f}
	s.instrument(opts.Obs)
	return s, nil
}

func (s *Store) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.appends = reg.Counter("oddci_journal_appends_total", "Journal records appended")
	s.bytes = reg.Counter("oddci_journal_bytes_total", "Bytes appended to the journal")
	s.fsyncs = reg.Counter("oddci_journal_fsyncs_total", "Journal fsyncs issued")
	s.compactions = reg.Counter("oddci_journal_compactions_total", "Journal compactions completed")
	s.errored = reg.Counter("oddci_journal_errors_total", "Journal append/compaction failures")
	s.replayed = reg.Counter("oddci_journal_replayed_records_total", "Journal records replayed at recovery")
	s.replayTime = reg.Histogram("oddci_journal_replay_seconds", "Wall time to fold the journal at recovery", nil)
	reg.GaugeFunc("oddci_journal_records", "Journal records since last compaction", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.recs)
	})
	reg.RegisterHealth("journal-stalled", func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.lastErr != nil {
			return fmt.Errorf("journal stalled: %w", s.lastErr)
		}
		return nil
	})
}

// Load folds the journal file into a State. A missing or empty file is
// an empty state. A file that ends in a torn append — its header or
// final frame cut short, or chunk frames with no record after them —
// folds up to its last whole record, and the next Append cuts the rest
// off; any other damage is reported with the codec's typed errors and
// nothing is returned. A version-1 or version-2 dir, including one that
// holds a v2 snapshot, is refused with the version error. NextID is the
// higher of the folded one and the header's. Each recovered image is
// checked against its chunk digests, so the State's Chunks are its
// images' and a root over them is the bytes' root.
func (s *Store) Load() (*State, error) {
	start := s.opts.Clock.Now()
	if _, err := os.Lstat(filepath.Join(s.dir, v2SnapFile)); err == nil {
		return nil, fmt.Errorf("%w: journal version 2 (want %d): the state dir holds %s", ErrCorrupt, codecVersion, v2SnapFile)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: stat %s: %w", v2SnapFile, err)
	}
	b, err := os.ReadFile(filepath.Join(s.dir, journalFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: read journal: %w", err)
	}
	st, table := NewState(), newChunkTable()
	// whole ends the last whole record, base the state NeedsCompaction
	// measures against, and recs counts the records after base's creates.
	var replayed, recs, whole, base int
	nextID, frames, err := parseJournalHeader(b)
	if err == nil {
		err = decodeJournal(frames, table, func(r Record, end int) {
			st.Apply(r)
			replayed++
			whole = end
			if r.Op == OpCreate && r.Inst.ID < nextID {
				base = end // an instance the last compaction wrote
				return
			}
			recs++
			if base == 0 {
				base = end // a file never compacted: its first record
			}
		})
	}
	if err != nil && !errors.Is(err, ErrTruncated) {
		return nil, err
	}
	st.NextID = max(st.NextID, nextID)
	for _, id := range st.Order {
		rec := st.Instances[id]
		if !slices.Equal(appimage.ChunkDigests(nil, rec.Image), rec.Chunks) {
			return nil, fmt.Errorf("%w: instance %d image does not hash to its chunk digests", ErrCorrupt, id)
		}
	}
	held := make(map[appimage.Digest]struct{}, len(table.held))
	for d := range table.held {
		held[d] = struct{}{}
	}
	size := 0 // no whole header: nothing was ever acknowledged
	if len(b) >= journalHeaderLen {
		size = journalHeaderLen + whole
	}
	s.mu.Lock()
	s.recs, s.baseBytes, s.recBytes = recs, int64(base), int64(whole-base)
	s.size, s.held = int64(size), held
	s.reset = size == 0 || size < len(b) // a header to write or a torn tail to cut
	s.mu.Unlock()
	if s.replayed != nil {
		s.replayed.Add(int64(replayed))
		s.replayTime.ObserveDuration(s.opts.Clock.Now().Sub(start))
	}
	return st, nil
}

// Append writes one record and fsyncs it: a create or image
// replacement goes in as the chunks of its image the state dir does not
// hold yet, then the record with its manifest, in one write and one
// fsync (which also covers a torn tail Load left to cut). The
// first error latches into Err and the journal-stalled health check;
// a record that fails is cut off the journal before the next one goes
// in, so a transient error costs that record, not the ones after it.
func (s *Store) Append(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("journal: store closed")
	}
	if s.held == nil {
		return s.failLocked(errors.New("journal: append before Load: the chunks the state dir stores are unknown"))
	}
	if s.reset || s.syncDir {
		if err := s.resetLocked(); err != nil {
			return s.failLocked(err)
		}
	}
	frames, err := appendRecordFrames(nil, r, s.held)
	if err != nil {
		return s.failLocked(err)
	}
	if _, err = s.f.Write(frames); err != nil {
		err = fmt.Errorf("journal: append: %w", err)
	} else if err = s.f.Sync(); err != nil {
		err = fmt.Errorf("journal: fsync: %w", err)
	} else {
		s.fsynced(1)
	}
	if err != nil {
		forgetChunks(frames, s.held)
		s.reset = true
		return s.failLocked(err)
	}
	s.size += int64(len(frames))
	s.recs++
	if s.baseBytes == 0 {
		s.baseBytes = int64(len(frames))
	} else {
		s.recBytes += int64(len(frames))
	}
	if s.appends != nil {
		s.appends.Inc()
		s.bytes.Add(int64(len(frames)))
	}
	return nil
}

// resetLocked readies the file for an append: it fsyncs the directory
// a compaction's rename waits on, then, if reset is set, cuts the file
// back to size, and at 0 starts it with a header. It does not fsync the
// file: the next append's fsync covers the cut and the header with its
// record, and until then a power cut leaves a file Load folds to the
// same state.
func (s *Store) resetLocked() error {
	if s.syncDir {
		if err := syncDir(s.dir); err != nil {
			return err
		}
		s.syncDir = false
		s.fsynced(1)
	}
	if !s.reset {
		return nil
	}
	if err := s.f.Truncate(s.size); err != nil {
		return fmt.Errorf("journal: truncate: %w", err)
	}
	if s.size == 0 {
		// O_APPEND writes land at the (new) end regardless of offset.
		if _, err := s.f.Write(journalHeader(1)); err != nil {
			return fmt.Errorf("journal: write header: %w", err)
		}
		s.size = journalHeaderLen
	}
	s.reset = false
	return nil
}

func (s *Store) fsynced(n int64) {
	if s.fsyncs != nil {
		s.fsyncs.Add(n)
	}
}

// NeedsCompaction reports whether the file has grown past the
// compaction threshold: compactEvery records since the last compaction,
// or more bytes after the instances it wrote than those hold (in a file
// never compacted, after the first record than that record holds). The
// byte rule bounds a state dir that records whole images to about twice
// the live state, however many are replaced, and never rewrites a lone
// record.
func (s *Store) NeedsCompaction() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs >= compactEvery || s.recBytes > s.baseBytes
}

// Compact replaces the file with st, folded: a header naming st.NextID,
// then one create per instance, each distinct chunk stored once, before
// the first manifest that names it. It writes state.journal.tmp, fsyncs
// it, renames it over state.journal and fsyncs the directory, and
// appends go on the new file from then on. A crash leaves the old file
// whole (beside a temp file Load ignores and the next Compact
// overwrites) or the new one. If the directory fsync fails, the next
// Append retries it before it writes, so no record is acknowledged on
// the new file before its rename is durable.
func (s *Store) Compact(st *State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("journal: store closed")
	}
	b, held, err := encodeState(st)
	if err != nil {
		return s.failLocked(err)
	}
	f, err := replaceFile(s.dir, journalFile, b, 0o644)
	if err != nil {
		return s.failLocked(err)
	}
	s.fsynced(1)
	s.f.Close() // the replaced file: the new one holds its state
	s.f, s.size, s.held = f, int64(len(b)), held
	s.reset, s.syncDir = false, true
	s.recs, s.recBytes, s.baseBytes = 0, 0, int64(len(b)-journalHeaderLen)
	if err := s.resetLocked(); err != nil {
		return s.failLocked(err)
	}
	if s.compactions != nil {
		s.compactions.Inc()
	}
	return nil
}

// replaceFile makes b the content of dir/name, whole: it writes
// name.tmp, fsyncs it and renames it over name, so a crash leaves the
// old file or the new one, and returns the new file, open for appending.
// A leftover name.tmp from an earlier crash is overwritten. The rename
// is durable only once dir is fsynced (syncDir).
func replaceFile(dir, name string, b []byte, perm os.FileMode) (*os.File, error) {
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, perm)
	if err != nil {
		return nil, fmt.Errorf("journal: write %s: %w", name, err)
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: write %s: %w", name, err)
	}
	return f, nil
}

// syncDir fsyncs dir, making the renames in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: fsync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: fsync dir: %w", err)
	}
	return nil
}

func (s *Store) failLocked(err error) error {
	if s.lastErr == nil {
		s.lastErr = err
	}
	if s.errored != nil {
		s.errored.Inc()
	}
	return err
}

// Err returns the first append/compaction error, if any — the same
// condition the journal-stalled health check reports.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Close flushes and closes the journal file. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("journal: fsync on close: %w", err)
	}
	return s.f.Close()
}

// LoadOrCreateKey returns the coordinator's persistent ed25519 signing
// key from dir, generating and saving one on first use. Persisting the
// key matters as much as the instance table: PNAs verify control
// envelopes against the controller's public key, so a restarted
// coordinator must keep signing with the same identity. A new key is
// written through replaceFile and the directory fsynced before it is
// returned, so once it can sign anything it is on disk whole.
func LoadOrCreateKey(dir string) (ed25519.PrivateKey, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: state dir: %w", err)
	}
	path := filepath.Join(dir, keyFile)
	if b, err := os.ReadFile(path); err == nil {
		if len(b) != ed25519.PrivateKeySize {
			return nil, fmt.Errorf("%w: key file %s has %d bytes (want %d)", ErrCorrupt, path, len(b), ed25519.PrivateKeySize)
		}
		return ed25519.PrivateKey(b), nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: read key: %w", err)
	}
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("journal: generate key: %w", err)
	}
	f, err := replaceFile(dir, keyFile, priv, 0o600)
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("journal: write %s: %w", keyFile, err)
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return priv, nil
}

package journal

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"oddci/internal/obs"
	"oddci/internal/simtime"
)

// File names inside a state directory. The snapshot is replaced
// atomically (write temp + rename); the journal is append-only and
// truncated to empty only as the second half of a compaction.
const (
	snapshotFile = "state.snap"
	journalFile  = "state.journal"
	keyFile      = "controller.key"
)

// Options tunes a Store.
type Options struct {
	// CompactEvery is the journal record count that arms compaction
	// (default 256). NeedsCompaction reports true at or beyond it, and
	// also once the journal holds more bytes than the last snapshot.
	CompactEvery int
	// NoSync skips the fsync after each append. Tests use it; a real
	// coordinator should not.
	NoSync bool
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

// Store persists a snapshot + journal pair in a directory. It is safe
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

	// baseBytes is the state the journal is measured against: the last
	// snapshot loaded or written or, on a store without one, the first
	// record appended, which a snapshot would hold too. recBytes counts
	// the journal bytes beyond it.
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
// does not replay; call Load for that.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = 256
	}
	if opts.Clock == nil {
		opts.Clock = simtime.NewReal()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: state dir: %w", err)
	}
	s := &Store{dir: dir, opts: opts}
	if err := s.openJournal(); err != nil {
		return nil, err
	}
	s.instrument(opts.Obs)
	return s, nil
}

func (s *Store) openJournal() error {
	path := filepath.Join(s.dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: stat: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.Write(JournalHeader()); err != nil {
			f.Close()
			return fmt.Errorf("journal: write header: %w", err)
		}
	}
	s.f = f
	return nil
}

func (s *Store) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.appends = reg.Counter("oddci_journal_appends_total", "Journal records appended")
	s.bytes = reg.Counter("oddci_journal_bytes_total", "Bytes appended to the journal")
	s.fsyncs = reg.Counter("oddci_journal_fsyncs_total", "Journal fsyncs issued")
	s.compactions = reg.Counter("oddci_journal_compactions_total", "Snapshot compactions completed")
	s.errored = reg.Counter("oddci_journal_errors_total", "Journal append/compaction failures")
	s.replayed = reg.Counter("oddci_journal_replayed_records_total", "Journal records replayed at recovery")
	s.replayTime = reg.Histogram("oddci_journal_replay_seconds", "Wall time to replay snapshot+journal", nil)
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

// Load replays snapshot+journal from disk into a State. A missing pair
// yields an empty state; corruption is reported with the codec's typed
// errors and nothing is replayed past it.
func (s *Store) Load() (*State, error) {
	start := s.opts.Clock.Now()
	var snap *Snapshot
	var snapBytes int64
	if b, err := os.ReadFile(filepath.Join(s.dir, snapshotFile)); err == nil {
		snapBytes = int64(len(b))
		snap, err = DecodeSnapshot(b)
		if err != nil {
			return nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: read snapshot: %w", err)
	}
	jb, err := os.ReadFile(filepath.Join(s.dir, journalFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: read journal: %w", err)
	}
	recs, err := DecodeJournal(jb)
	if err != nil {
		return nil, err
	}
	st := Replay(snap, recs)
	s.mu.Lock()
	s.recs, s.recBytes, s.baseBytes = len(recs), int64(max(len(jb)-len(JournalHeader()), 0)), snapBytes
	s.mu.Unlock()
	if s.replayed != nil {
		s.replayed.Add(int64(len(recs)))
		s.replayTime.ObserveDuration(s.opts.Clock.Now().Sub(start))
	}
	return st, nil
}

// Append frames and writes one record, fsyncing unless NoSync. The
// first error latches into Err and the journal-stalled health check.
func (s *Store) Append(r Record) error {
	frame, err := EncodeRecord(r)
	if err != nil {
		return s.fail(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("journal: store closed")
	}
	if _, err := s.f.Write(frame); err != nil {
		return s.failLocked(fmt.Errorf("journal: append: %w", err))
	}
	if !s.opts.NoSync {
		if err := s.f.Sync(); err != nil {
			return s.failLocked(fmt.Errorf("journal: fsync: %w", err))
		}
		if s.fsyncs != nil {
			s.fsyncs.Inc()
		}
	}
	s.recs++
	if s.baseBytes == 0 {
		s.baseBytes = int64(len(frame))
	} else {
		s.recBytes += int64(len(frame))
	}
	if s.appends != nil {
		s.appends.Inc()
		s.bytes.Add(int64(len(frame)))
	}
	return nil
}

// NeedsCompaction reports whether the journal has grown past the
// compaction threshold: CompactEvery records, or more bytes beyond the
// last snapshot than the snapshot holds (on a store without one, beyond
// the first record than that record holds). The byte rule bounds a
// state dir that records whole images to about twice the live state,
// however many are replaced, and never rewrites a lone record.
func (s *Store) NeedsCompaction() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs >= s.opts.CompactEvery || s.recBytes > s.baseBytes
}

// Compact atomically replaces the snapshot with st's image and resets
// the journal to empty. Crash ordering is safe at every step: the
// snapshot rename is atomic, and until the journal truncation lands the
// journal's records merely replay idempotently on top of the new
// snapshot.
func (s *Store) Compact(st *State) error {
	b, err := EncodeSnapshot(st.Snapshot())
	if err != nil {
		return s.fail(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("journal: store closed")
	}
	tmp := filepath.Join(s.dir, snapshotFile+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return s.failLocked(fmt.Errorf("journal: write snapshot: %w", err))
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotFile)); err != nil {
		return s.failLocked(fmt.Errorf("journal: commit snapshot: %w", err))
	}
	// Reset the journal: truncate and rewrite the header.
	if err := s.f.Truncate(0); err != nil {
		return s.failLocked(fmt.Errorf("journal: truncate: %w", err))
	}
	// O_APPEND writes land at the (new) end regardless of offset.
	if _, err := s.f.Write(JournalHeader()); err != nil {
		return s.failLocked(fmt.Errorf("journal: rewrite header: %w", err))
	}
	if !s.opts.NoSync {
		if err := s.f.Sync(); err != nil {
			return s.failLocked(fmt.Errorf("journal: fsync: %w", err))
		}
		if s.fsyncs != nil {
			s.fsyncs.Inc()
		}
	}
	s.recs, s.recBytes, s.baseBytes = 0, 0, int64(len(b))
	if s.compactions != nil {
		s.compactions.Inc()
	}
	return nil
}

func (s *Store) fail(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failLocked(err)
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

// Dir returns the state directory the store persists into.
func (s *Store) Dir() string { return s.dir }

// Close flushes and closes the journal file. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if !s.opts.NoSync {
		if err := s.f.Sync(); err != nil {
			s.f.Close()
			return fmt.Errorf("journal: fsync on close: %w", err)
		}
	}
	return s.f.Close()
}

// LoadOrCreateKey returns the coordinator's persistent ed25519 signing
// key from dir, generating and saving one on first use. Persisting the
// key matters as much as the instance table: PNAs verify control
// envelopes against the controller's public key, so a restarted
// coordinator must keep signing with the same identity.
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
	if err := os.WriteFile(path, priv, 0o600); err != nil {
		return nil, fmt.Errorf("journal: save key: %w", err)
	}
	return priv, nil
}

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

// File names inside a state directory. The snapshot and the key are
// replaced atomically (write a temp file, fsync it, rename it over, fsync
// the directory); the journal is append-only, and starts over, under the
// new snapshot's generation, only once that snapshot is durable.
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

	// gen is the generation of the snapshot on disk, which the journal
	// extends. size is the journal's length up to its last whole,
	// written record (0: not yet started under gen). reset asks that the
	// file be cut back to size, and started over with a header for gen
	// at 0, before it takes another record: a compaction or a Load left
	// it extending an earlier snapshot, or an append failed partway.
	// syncDir asks that the directory be fsynced before that, so the
	// journal loses no byte before the snapshot that holds them is
	// durable.
	gen            uint64
	size           int64
	reset, syncDir bool

	// held is the set of chunk digests the snapshot and the journal
	// store, so an append writes only the chunks neither holds. It is nil
	// until Load or Compact learns it.
	held map[appimage.Digest]struct{}

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
// does not replay; call Load (or Compact) before the first Append.
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
// errors and nothing is replayed past it. A journal that extends an
// earlier snapshot generation than the one on disk is skipped: a
// compaction already folded it in, and was cut before it started the
// journal over (the next Append does). One that extends a later
// generation is ErrCorrupt, its snapshot lost. Each recovered image is
// checked against its chunk digests, so the State's Chunks are its
// images' and a root over them is the bytes' root.
func (s *Store) Load() (*State, error) {
	start := s.opts.Clock.Now()
	st := NewState()
	table := newChunkTable()
	var gen uint64
	var snapBytes int64
	if b, err := os.ReadFile(filepath.Join(s.dir, snapshotFile)); err == nil {
		snapBytes = int64(len(b))
		var snap *Snapshot
		if snap, table, err = decodeSnapshot(b); err != nil {
			return nil, err
		}
		st, gen = Replay(snap, nil), snap.Gen
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: read snapshot: %w", err)
	}
	jb, err := os.ReadFile(filepath.Join(s.dir, journalFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: read journal: %w", err)
	}
	recs, stale := 0, false
	if len(jb) == 0 {
		jb = nil // never started: the first Append writes its header
	} else {
		jgen, frames, err := parseJournalHeader(jb)
		if err != nil {
			return nil, err
		}
		switch {
		case jgen > gen:
			return nil, fmt.Errorf("%w: journal extends snapshot generation %d, but the snapshot on disk is generation %d", ErrCorrupt, jgen, gen)
		case jgen < gen:
			jb, stale = nil, true
		default:
			if err := decodeJournal(frames, table, func(r Record) { st.Apply(r); recs++ }); err != nil {
				return nil, err
			}
		}
	}
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
	s.mu.Lock()
	s.recs, s.recBytes, s.baseBytes = recs, int64(max(len(jb)-journalHeaderLen, 0)), snapBytes
	s.gen, s.size, s.held = gen, int64(len(jb)), held
	s.reset, s.syncDir = jb == nil, stale && !s.opts.NoSync
	s.mu.Unlock()
	if s.replayed != nil {
		s.replayed.Add(int64(recs))
		s.replayTime.ObserveDuration(s.opts.Clock.Now().Sub(start))
	}
	return st, nil
}

// Append writes one record, fsyncing unless NoSync: a create or image
// replacement goes in as the chunks of its image the state dir does not
// hold yet, then the record with its manifest, in one write and one
// fsync (which also covers a journal Compact just started over). The
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
	if s.reset {
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
	} else if !s.opts.NoSync {
		if err = s.f.Sync(); err != nil {
			err = fmt.Errorf("journal: fsync: %w", err)
		} else {
			s.fsynced(1)
		}
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

// resetLocked cuts the journal back to size, and at 0 starts it over
// with a header for gen; a directory fsync owed by a compaction goes
// first. It does not fsync the journal: until the next append's fsync,
// a power cut leaves it extending the earlier generation, empty, or
// holding the header, and Load replays none of those past the snapshot.
func (s *Store) resetLocked() error {
	if s.syncDir {
		if err := syncDir(s.dir); err != nil {
			return err
		}
		s.syncDir = false
		s.fsynced(1)
	}
	if err := s.f.Truncate(s.size); err != nil {
		return fmt.Errorf("journal: truncate: %w", err)
	}
	if s.size == 0 {
		// O_APPEND writes land at the (new) end regardless of offset.
		if _, err := s.f.Write(journalHeader(s.gen)); err != nil {
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

// Compact atomically replaces the snapshot with st's image, one
// generation on, and starts the journal over under it. The new snapshot
// is durable before the journal loses a byte: it is written to a temp
// file and fsynced, renamed over the old one, and the directory
// fsynced, and only then is the journal truncated. A crash before the
// rename leaves the old pair (and a temp file Load ignores and the next
// Compact replaces); after it, the journal names the old generation
// until it starts over, so Load skips it. The chunks the snapshot
// stores become the ones later appends skip. Once the rename lands a
// later error only defers the journal's restart to the next Append.
func (s *Store) Compact(st *State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("journal: store closed")
	}
	snap := st.Snapshot()
	snap.Gen = s.gen + 1
	b, held, err := encodeSnapshot(snap)
	if err != nil {
		return s.failLocked(err)
	}
	if err := replaceFile(s.dir, snapshotFile, b, 0o644, !s.opts.NoSync); err != nil {
		return s.failLocked(err)
	}
	if !s.opts.NoSync {
		s.fsynced(1)
	}
	s.gen, s.size, s.held = snap.Gen, 0, held
	s.reset, s.syncDir = true, !s.opts.NoSync
	s.recs, s.recBytes, s.baseBytes = 0, 0, int64(len(b))
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
// old file or the new one. A leftover name.tmp from an earlier crash is
// overwritten. The rename is durable only once dir is fsynced
// (syncDir). sync false skips the fsync (tests).
func replaceFile(dir, name string, b []byte, perm os.FileMode, sync bool) error {
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return fmt.Errorf("journal: write %s: %w", name, err)
	}
	_, err = f.Write(b)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: write %s: %w", name, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: commit %s: %w", name, err)
	}
	return nil
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
	if err := replaceFile(dir, keyFile, priv, 0o600, true); err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return priv, nil
}

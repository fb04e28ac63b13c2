package durable

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"hdlts/internal/obs"
	"hdlts/internal/wire"
)

// A Store keeps two files in its directory:
//
//	snapshot.json — a JSON array of records, the state as of the last compaction
//	wal.jsonl     — one line per transition since that snapshot
//
// A record's first line is a full put; each later transition may instead
// append a patch line that carries only what changed since the record's
// previous line, which replay decodes onto the live record with the
// record's own decoder. When the WAL's bytes grow past a few multiples of
// the last snapshot's, compaction writes a fresh snapshot (tmp file +
// fsync + rename) and truncates the WAL. Load order is snapshot first, then WAL
// replay; a torn final line — the expected debris of SIGKILL mid-append —
// ends replay cleanly, losing at most the transition being written, and is
// cut off so the next append starts on a fresh line. A line that does not
// decode with more bytes after it is damage, not a torn tail: Open refuses
// the store and leaves the file as it is.
const (
	snapshotFile = "snapshot.json"
	walFile      = "wal.jsonl"

	// compactRatio is how many times the last snapshot's bytes the WAL may
	// hold before a flush compacts it.
	compactRatio = 4
	// minCompactBytes floors the compaction trigger so small stores don't
	// rewrite the snapshot every few transitions.
	minCompactBytes = 64 << 10
	// maxSpareBatch caps the batch buffer a store keeps for reuse, so one
	// huge line does not pin its buffer for the life of the process.
	maxSpareBatch = 1 << 20
)

// Payload keys of WAL put and patch lines. The key is fixed per record
// type by the on-disk format: jobs have always been written under "job",
// workflow records under "rec".
const (
	JobKey = "job"
	RecKey = "rec"
)

// FsyncBuckets are the histogram buckets for per-flush fsync latency.
// Group-commit fsyncs sit between ~50µs (battery-backed or lying disks)
// and tens of ms (spinning rust); log-spaced 10µs–1s buckets resolve both
// regimes where the decade defaults cannot.
var FsyncBuckets = obs.ExpBuckets(1e-5, 1, 3)

// Config names a Store's directory, WAL payload key and telemetry.
type Config struct {
	// Dir is the store directory; empty means memory-only (nothing
	// survives a restart, and no line or snapshot is written).
	Dir string
	// Key is the payload key of put and patch lines: JobKey or RecKey.
	Key string
	// Fsync, when non-nil, observes each flush's fsync latency.
	Fsync *obs.Histogram
	// Errors counts WAL failures (encode, disk full, a dying device). They
	// are never fatal: the owner keeps serving, without durability for the
	// records involved.
	Errors *obs.Counter
}

// A WAL line is one JSON object, {"op": ..., <key>: payload, "id": ...}:
// a full-record upsert ("put") with the record under the store's payload
// key, a patch of the record with the ID ("patch"), or a deletion by ID
// ("del"), with the members an op has no use for left out. stage writes
// each line with the bytes json.Encoder writes for the struct
//
//	struct {
//		Op  string `json:"op"`
//		Job any    `json:"job,omitempty"`
//		Rec any    `json:"rec,omitempty"`
//		ID  string `json:"id,omitempty"`
//	}
//
// and replay's walk accepts what json.Unmarshal into it accepts.

// Store is a durable id→record table. Its table methods (Get, NextSeq,
// List, Put, Patch, Delete) run under the owner's table lock — the mutex
// given to Open, which also guards the owner's own indexes. Put, Patch and
// Delete stage a WAL line, written by the payload itself; Flush, called
// after the owner releases its lock, writes every staged line with a
// single fsync and compacts when due.
type Store[R Record] struct {
	mu      *sync.Mutex // the owner's table lock
	key     string
	recs    map[string]R
	nextSeq uint64
	pending wire.Writer // WAL lines staged for the next Flush, compact
	errs    *obs.Counter
	newRec  func() R // allocates a record for replay to decode into

	// wmu is the WAL-writer lock: it serialises appends, compaction and
	// close. Lock order is wmu → mu; mu never covers disk I/O, so table
	// readers are not exposed to fsync latency.
	wmu   sync.Mutex
	log   *wal   // nil in memory-only mode
	spare []byte // the last written batch's buffer, for the next (under wmu)
}

// wal is the open WAL file and its compaction bookkeeping; every method
// runs under the Store's writer lock.
type wal struct {
	dir   string
	f     logFile
	bytes int            // WAL bytes since the last compaction: the file's length
	snap  int            // bytes of the snapshot last written or loaded
	fsync *obs.Histogram // per-flush fsync latency, owner-named
	torn  bool           // a failed batch could not be cut off; append nothing after it
}

// logFile is what the WAL needs of its open file, an *os.File.
type logFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// errTorn refuses a batch once a failed one could not be cut off the WAL.
var errTorn = errors.New("durable: append wal: refused after a failed batch could not be cut off")

// Open builds a Store guarded by mu and, when cfg.Dir is set, recovers it
// from the directory's snapshot and WAL. It returns the recovered records
// in submission (Seq) order for the owner to adopt, with NextSeq already
// past every one of them. Files that parse but hold a record without an
// ID or with an unknown state are refused with an error. R is a pointer
// to T, so replay can allocate the records it decodes: Open[*Job] infers
// T.
func Open[R interface {
	*T
	Record
}, T any](cfg Config, mu *sync.Mutex) (*Store[R], []R, error) {
	if cfg.Key != JobKey && cfg.Key != RecKey {
		return nil, nil, fmt.Errorf("durable: unknown payload key %q", cfg.Key)
	}
	s := &Store[R]{mu: mu, key: cfg.Key, recs: make(map[string]R), errs: cfg.Errors,
		newRec: func() R { return new(T) }}
	if s.errs == nil {
		s.errs = new(obs.Counter)
	}
	if cfg.Dir == "" {
		return s, nil, nil
	}
	log := &wal{dir: cfg.Dir, fsync: cfg.Fsync}
	if err := s.load(log); err != nil {
		return nil, nil, err
	}
	recovered := s.List(nil)
	slices.Reverse(recovered)
	for _, r := range recovered {
		if st := r.RecordState(); !st.Valid() {
			log.f.Close()
			return nil, nil, fmt.Errorf("durable: record %s has unknown state %q", r.RecordID(), st)
		}
		s.nextSeq = max(s.nextSeq, r.RecordSeq()+1)
	}
	s.log = log
	return s, recovered, nil
}

// load reads the snapshot and replays the WAL in log.dir into the table,
// then opens the WAL for appending with any torn tail cut off — otherwise
// the next append would extend it into one undecodable line and hide
// every later record from replay. Damage before the tail is an error
// returned before the WAL is opened, so nothing is cut.
func (s *Store[R]) load(log *wal) error {
	if err := os.MkdirAll(log.dir, 0o755); err != nil {
		return fmt.Errorf("durable: create store dir: %w", err)
	}
	b, err := os.ReadFile(filepath.Join(log.dir, snapshotFile))
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return fmt.Errorf("durable: read snapshot: %w", err)
	default:
		if err := s.loadSnapshot(b); err != nil {
			return err
		}
		log.snap = len(b)
	}
	path := filepath.Join(log.dir, walFile)
	good, err := s.replayWAL(path, log)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open wal: %w", err)
	}
	if st, err := f.Stat(); err == nil && st.Size() > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return fmt.Errorf("durable: cut torn wal tail: %w", err)
		}
	}
	log.f = f
	return nil
}

// loadSnapshot decodes the snapshot, a JSON array of records (or null),
// into the table. It refuses what json.Unmarshal into a []R would, and a
// null or ID-less element.
func (s *Store[R]) loadSnapshot(b []byte) error {
	var zero R
	sc := wire.NewScanner(b)
	switch k := sc.Peek(); k {
	case wire.Null:
		sc.Null()
	case wire.Array:
		arr := sc.Array()
		for arr.Next() {
			var r R
			if err := s.decode(sc, &r); err != nil {
				return fmt.Errorf("durable: decode snapshot: %w", err)
			}
			if r == zero || r.RecordID() == "" {
				return errors.New("durable: decode snapshot: record without an id")
			}
			s.recs[r.RecordID()] = r
		}
	default:
		sc.Skip()
		if sc.Err() == nil {
			return fmt.Errorf("durable: decode snapshot: cannot decode %s into a record list", k)
		}
	}
	if !sc.AtEOF() {
		return fmt.Errorf("durable: decode snapshot: %w", sc.Err())
	}
	return nil
}

// replayWAL applies every newline-terminated WAL line in file order and
// returns the byte length of the lines applied. After a crash mid-append
// only the tail can be torn, since each append was fsynced, so a line that
// does not decode ends replay only when it is the last bytes of the file;
// with anything after it, it is an error naming the line's byte offset,
// since cutting there would drop acknowledged records. Lines are streamed,
// with no cap on their length: a line longer than the read buffer is
// gathered into a reused one.
func (s *Store[R]) replayWAL(path string, log *wal) (int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("durable: open wal: %w", err)
	}
	defer f.Close()
	rd := bufio.NewReaderSize(f, 64<<10)
	var long []byte
	var good int64
	for {
		line, err := rd.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = rd.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err == io.EOF {
			break // an unterminated fragment at EOF is torn
		}
		if err != nil {
			return 0, fmt.Errorf("durable: replay wal: %w", err)
		}
		if !s.replay(line[:len(line)-1]) {
			switch _, err := rd.Peek(1); err {
			case io.EOF:
				return good, nil
			case nil:
				return 0, fmt.Errorf("durable: replay wal: the line at byte offset %d does not decode and more bytes follow it", good)
			default:
				return 0, fmt.Errorf("durable: replay wal: %w", err)
			}
		}
		log.bytes += len(line)
		good += int64(len(line))
	}
	return good, nil
}

// replay applies one WAL line to the table, reporting whether it decoded.
// It walks the envelope with internal/wire and hands each payload to the
// record's own decoder, accepting exactly the lines json.Unmarshal into an
// envelope accepts: a syntax or type error anywhere, under either payload
// key or in a repeated key, refuses the line. A put without a record or ID, a
// patch of an ID not in the table or one that would change its record's
// ID, and an unknown op are skipped.
//
// A patch's payloads are decoded into fresh records by the walk, which is
// the check above; then onto a record holding only the line's ID, which is
// the ID check; and only then onto the live record, so that a line replay
// refuses or skips leaves the table as it was.
func (s *Store[R]) replay(line []byte) bool {
	sc := wire.NewScanner(line)
	switch sc.Peek() {
	case wire.Null:
		sc.Null()
		return sc.AtEOF()
	case wire.Object:
	default:
		return false
	}
	var op, id string
	var job, rec R
	obj := sc.Object()
	for obj.Next() {
		var err error
		switch {
		case obj.Is("op"):
			err = sc.StringInto(&op)
		case obj.Is(JobKey), obj.Is(RecKey):
			dst := &job
			if obj.Is(RecKey) {
				dst = &rec
			}
			err = s.decode(sc, dst)
		case obj.Is("id"):
			err = sc.StringInto(&id)
		default:
			sc.Skip()
		}
		if err != nil {
			return false
		}
	}
	if !sc.AtEOF() {
		return false
	}
	switch op {
	case "put":
		r := job
		if s.key == RecKey {
			r = rec
		}
		var zero R
		if r != zero && r.RecordID() != "" {
			s.recs[r.RecordID()] = r
		}
	case "patch":
		r, ok := s.recs[id]
		if !ok || !s.keepsID(line, id) {
			break
		}
		if err := s.patchOnto(line, r); err != nil {
			return false
		}
	case "del":
		delete(s.recs, id)
	}
	return true
}

// keepsID reports whether a patch line, already accepted by replay's walk,
// leaves its record's ID at id: decoded onto a record that holds only that
// ID, its payloads leave the ID there.
func (s *Store[R]) keepsID(line []byte, id string) bool {
	r := s.newRec()
	seed := append(wire.AppendString([]byte(`{"id":`), id), '}')
	if err := r.DecodeRecord(wire.NewScanner(seed)); err != nil {
		return false
	}
	return s.patchOnto(line, r) == nil && r.RecordID() == id
}

// patchOnto decodes each non-null payload under the store's key of a patch
// line, already accepted by replay's walk, onto r in line order.
func (s *Store[R]) patchOnto(line []byte, r R) error {
	sc := wire.NewScanner(line)
	obj := sc.Object()
	for obj.Next() {
		if !obj.Is(s.key) {
			sc.Skip()
		} else if !sc.Null() {
			if err := r.DecodeRecord(sc); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

// decode decodes one payload into *dst as encoding/json decodes into a
// record pointer: null sets it nil, and anything else is decoded by the
// record itself, into the record already there when a key repeats.
func (s *Store[R]) decode(sc *wire.Scanner, dst *R) error {
	var zero R
	if sc.Null() {
		*dst = zero
		return nil
	}
	if *dst == zero {
		*dst = s.newRec()
	}
	return (*dst).DecodeRecord(sc)
}

// Get returns the live record for id (caller holds mu). The pointer is the
// table's own; hand callers a copy.
func (s *Store[R]) Get(id string) (R, bool) {
	r, ok := s.recs[id]
	return r, ok
}

// NextSeq allocates the next submission sequence number (caller holds mu).
func (s *Store[R]) NextSeq() uint64 {
	n := s.nextSeq
	s.nextSeq++
	return n
}

// List returns the live records keep accepts (every one when keep is nil),
// newest submission first (caller holds mu).
func (s *Store[R]) List(keep func(R) bool) []R {
	out := make([]R, 0, len(s.recs))
	for _, r := range s.recs {
		if keep == nil || keep(r) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].RecordSeq() > out[k].RecordSeq() })
	return out
}

// Put inserts or replaces r and stages a full WAL line capturing its
// current state (caller holds mu). The line is written now, so it
// snapshots the record as of this transition, but reaches disk only at
// the next Flush.
func (s *Store[R]) Put(r R) {
	s.recs[r.RecordID()] = r
	s.stage("put", "", r)
}

// Patch stages a patch line for r, a record already in the table whose
// previous line is staged (caller holds mu). delta is the line's payload:
// what changed since that line, in a shape r's DecodeRecord merges onto
// the record — keys it leaves out keep their values. Replay applies it to
// the record with r's ID, so delta must not change that ID: replay skips a
// patch that would.
//
// Compaction may snapshot a record while its patch is still staged, and
// replay then applies the patch on top of that snapshot. An owner keeps
// this sound by not changing a record between staging its patch and the
// Flush that writes it, or by staging every change as it makes it.
func (s *Store[R]) Patch(r R, delta Payload) {
	s.stage("patch", r.RecordID(), delta)
}

// Delete drops id and stages its deletion (caller holds mu).
func (s *Store[R]) Delete(id string) {
	delete(s.recs, id)
	s.stage("del", id, nil)
}

// stage writes one WAL line onto the pending batch (caller holds mu): the
// payload p, when there is one, under the store's key, and the id when it
// is not empty. A payload the Writer cannot write refuses the line, which
// is counted as a WAL failure and leaves the batch as it was.
func (s *Store[R]) stage(op, id string, p Payload) {
	if s.log == nil {
		return
	}
	w := &s.pending
	start := len(w.Bytes())
	w.BeginObject()
	w.Key("op")
	w.String(op)
	if p != nil {
		w.Key(s.key)
		p.AppendRecord(w)
	}
	if id != "" {
		w.Key("id")
		w.String(id)
	}
	w.EndObject()
	if w.Err() != nil {
		w.Truncate(start)
		s.errs.Inc()
		return
	}
	w.Newline()
}

// snapshot writes the live set, ordered by submission sequence, as the
// snapshot payload into w, a compact Writer (caller holds mu, so no
// record mutates mid-write): the bytes json.Marshal writes for the list.
func (s *Store[R]) snapshot(w *wire.Writer) error {
	list := s.List(nil)
	slices.Reverse(list)
	w.BeginArray()
	for _, r := range list {
		r.AppendRecord(w)
	}
	w.EndArray()
	if err := w.Err(); err != nil {
		return fmt.Errorf("durable: encode snapshot: %w", err)
	}
	return nil
}

// Flush writes every staged line with one write and one fsync, then
// compacts once the WAL holds several times the last snapshot's bytes.
// Callers invoke it after releasing mu; durability-before-return still
// holds because a caller's lines are either in the batch this flush
// writes or were written by a concurrent flusher that claimed them first —
// claiming under the writer lock keeps batches in staging order. Failures
// are counted, not returned. A batch that fails is dropped and cut back
// off the WAL; while a cut fails, every later batch is dropped and
// counted too, until a compaction restarts the WAL.
func (s *Store[R]) Flush() {
	if s.log == nil {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	batch := s.pending.Swap(s.spare)
	s.mu.Unlock()
	//lint:hdltsvet-ignore lockedio wmu is the WAL-writer lock; its whole purpose is covering this batch write
	err := s.log.append(batch)
	s.spare = nil
	if cap(batch) <= maxSpareBatch {
		s.spare = batch
	}
	if err != nil {
		s.errs.Inc()
		return
	}
	if s.log.bytes < max(compactRatio*s.log.snap, minCompactBytes) {
		return
	}
	// The snapshot goes into a pooled Writer's buffer: reused from one
	// compaction to the next, and given back to the collector with the
	// pool's other buffers.
	snap := wire.GetWriter(false)
	defer snap.Free()
	s.mu.Lock()
	err = s.snapshot(snap)
	s.mu.Unlock()
	if err == nil {
		//lint:hdltsvet-ignore lockedio compaction runs under the WAL-writer lock by design; the table lock is not held
		err = s.log.compact(snap.Bytes())
	}
	if err != nil {
		s.errs.Inc()
	}
}

// append durably writes a batch of lines: one write, one fsync
// (timed into the fsync histogram) for the whole group. A failed write or
// fsync cuts the file back to its length before the batch, since replay
// refuses a store with a broken line before its end; if the cut fails
// too, the WAL is torn and refuses every later batch.
func (w *wal) append(batch []byte) error {
	if len(batch) == 0 {
		return nil
	}
	if w.torn {
		return errTorn
	}
	err := w.write(batch)
	if err == nil {
		w.bytes += len(batch)
		return nil
	}
	if cerr := w.f.Truncate(int64(w.bytes)); cerr != nil {
		w.torn = true
		return errors.Join(err, fmt.Errorf("durable: cut failed batch off the wal: %w", cerr))
	}
	return err
}

// write writes and fsyncs one batch.
func (w *wal) write(batch []byte) error {
	if _, err := w.f.Write(batch); err != nil {
		return fmt.Errorf("durable: append wal: %w", err)
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync wal: %w", err)
	}
	if w.fsync != nil {
		w.fsync.ObserveSince(start)
	}
	return nil
}

// compact writes the snapshot atomically (tmp + fsync + rename)
// and truncates the WAL.
func (w *wal) compact(b []byte) error {
	path := filepath.Join(w.dir, snapshotFile)
	tf, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: compact: %w", err)
	}
	_, err = tf.Write(b)
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err == nil {
		// The snapshot now covers everything; restart the WAL.
		err = w.f.Truncate(0)
	}
	if err != nil {
		return fmt.Errorf("durable: compact: %w", err)
	}
	w.bytes, w.snap, w.torn = 0, len(b), false
	return nil
}

// Close flushes what the final transitions staged and releases the WAL,
// under the writer lock so an in-flight flush finishes first.
func (s *Store[R]) Close() error {
	if s.log == nil {
		return nil
	}
	s.Flush()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	//lint:hdltsvet-ignore lockedio shutdown path: closing the WAL must serialise with the final flush under the writer lock
	return s.log.f.Close()
}

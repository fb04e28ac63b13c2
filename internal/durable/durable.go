// Package durable is the durable-record core the daemon's two runners
// share: solve jobs (internal/jobs) and workflows (internal/exec). It owns
// what both would otherwise keep a copy of — the five-state lifecycle,
// handle generation, the id→record table with submission sequence
// numbers, the write-ahead log under it (a full put line for a record's
// first transition, patch lines of only what each later transition
// changed, del lines; group-committed with one fsync per flush, compacted
// into an atomic snapshot once the log's bytes outgrow the last
// snapshot's), and Seq-ordered crash recovery. What a record means, what
// its patches hold, and what recovery does with an unfinished one, stays
// with its owner.
package durable

import (
	"crypto/rand"
	"encoding/hex"

	"hdlts/internal/wire"
)

// State is one phase of a durable run's lifecycle.
type State string

// The lifecycle: a run is admitted queued, moves to running, and finishes
// done, failed, or cancelled. A run that is running when the process dies
// is still running in the WAL; recovery hands it back to its owner.
const (
	Queued    State = "queued"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// States lists every state in lifecycle order (gauge registration, docs).
var States = []State{Queued, Running, Done, Failed, Cancelled}

// Terminal reports whether a run in this state will never run again.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// Valid reports whether s is one of the five lifecycle states.
func (s State) Valid() bool {
	for _, t := range States {
		if s == t {
			return true
		}
	}
	return false
}

// NewID draws a fresh handle, prefix plus 16 hex chars, from crypto/rand;
// handles stay unique across restarts without any persisted counter.
func NewID(prefix string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; there is no sensible
		// degraded mode for handle allocation.
		panic("durable: crypto/rand: " + err.Error())
	}
	return prefix + hex.EncodeToString(b[:])
}

// Record is what a Store holds: a pointer to a JSON-serialisable struct
// that reports its handle, submission sequence and lifecycle phase, writes
// itself into WAL lines and snapshots, and decodes itself on replay.
type Record interface {
	comparable
	RecordID() string
	RecordSeq() uint64
	RecordState() State
	// DecodeRecord decodes the JSON value at the scanner, a WAL payload
	// or snapshot element (never null), into the record as json.Unmarshal
	// would, merging into the fields a repeated payload key already set.
	// A patch line's payload is decoded the same way onto the live
	// record, so keys a patch leaves out must keep their values. Any error
	// ends replay; nothing decoded may alias the scanned bytes.
	DecodeRecord(*wire.Scanner) error
	Payload
}

// Payload is what a put or patch line carries under the store's payload
// key: a record, or a patch of one.
type Payload interface {
	// AppendRecord writes the payload into a compact Writer as one JSON
	// value, with the bytes json.Marshal writes for it. A value it cannot
	// write (a non-finite float, a time outside RFC 3339's years) is left
	// in the Writer's Err, and the line or snapshot is refused as
	// json.Marshal's error refused it.
	AppendRecord(*wire.Writer)
}

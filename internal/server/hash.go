package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"

	"hdlts/internal/sched"
	"hdlts/internal/wire"
)

// CanonicalProblemJSON renders a validated problem in its canonical wire
// form: the deterministic sched.Problem.WriteJSON encoding (tasks in ID
// order, stable field order, bandwidth emitted only when non-uniform).
// Two problems that decode equal serialise byte-identically, whatever
// whitespace, field order, or redundant bandwidth matrix the client sent.
// The returned slice is the caller's own.
func CanonicalProblemJSON(pr *sched.Problem) ([]byte, error) {
	w := wire.GetWriter(true)
	defer w.Free()
	if err := pr.AppendCanonical(w); err != nil {
		return nil, err
	}
	return bytes.Clone(w.Bytes()), nil
}

// CanonicalHash returns the content address of one (algorithm, problem)
// pair: sha256 over the canonical algorithm name and the canonical problem
// serialisation, hex-encoded. Scheduling is deterministic for a given
// pair, so this hash keys the job subsystem's result cache and in-flight
// coalescing. Pass the registry's canonical name (Algorithm.Name()), not
// raw client input, so "hdlts" and "HDLTS" address the same entry.
func CanonicalHash(algorithm string, pr *sched.Problem) (string, error) {
	w := wire.GetWriter(true)
	defer w.Free()
	if err := pr.AppendCanonical(w); err != nil {
		return "", err
	}
	return hashOf(algorithm, w.Bytes()), nil
}

// canonicalize renders pr for job admission in one pass that formats each
// number once: its compact canonical serialisation, the caller's own,
// which the job stores, and the content address of (algorithm, pr), which
// hashes the indented form CanonicalHash hashes, laid out from the compact
// bytes with no second render.
func canonicalize(algorithm string, pr *sched.Problem) (compact []byte, hash string, err error) {
	w := wire.GetWriter(false)
	defer w.Free()
	if err := pr.AppendJSON(w); err != nil {
		return nil, "", err
	}
	compact = bytes.Clone(w.Bytes())
	ind := wire.GetWriter(true)
	defer ind.Free()
	ind.Raw(compact)
	ind.Newline()
	return compact, hashOf(algorithm, ind.Bytes()), nil
}

// hashOf is the hash core for callers that already hold the canonical
// serialisation.
func hashOf(algorithm string, canonicalProblem []byte) string {
	h := sha256.New()
	h.Write([]byte(algorithm))
	h.Write([]byte{0})
	h.Write(canonicalProblem)
	return hex.EncodeToString(h.Sum(nil))
}

package backend

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
)

// Result credentials. Every dispatch in a credentialed deployment hands
// the worker an opaque token bound to (seq, node, job, task); the worker
// echoes it with its result, and the Backend — the only holder of the
// MAC secret — verifies the echo before counting the vote. A forged
// token fails the MAC; a genuine token presented for the wrong slot
// (another node's lease, another task, or a lease that was re-granted
// since) is a replay. Nodes never verify credentials, so no key is
// distributed: the token round-trips as opaque bytes.
//
// The MAC is HMAC-SHA256 over the 32-byte binding prefix, not an
// ed25519 signature: credentials are issued and verified by the same
// party on the dispatch hot path, so a keyed hash gives the same
// unforgeability against nodes at a fraction of the signing cost.

// CredentialMode selects how the Backend treats result credentials.
type CredentialMode int

// Credential modes. CredOff is the pre-credential wire (nothing issued
// or checked). CredWarn issues and verifies but still accepts bad or
// missing echoes — the mixed-fleet migration mode. CredEnforce rejects
// them and penalizes the sender's credibility.
const (
	CredOff CredentialMode = iota
	CredWarn
	CredEnforce
)

// CredentialLen is the wire size of a credential:
// seq(8) | node(8) | job(8) | task(8) | mac(32).
const CredentialLen = 64

// credentialBindingLen is the prefix the MAC covers.
const credentialBindingLen = CredentialLen - sha256.Size

// credentialSecretLen is the generated MAC secret size.
const credentialSecretLen = 32

// Credential decode/verify errors.
var (
	ErrCredentialMalformed = errors.New("backend: malformed credential")
	ErrCredentialForged    = errors.New("backend: forged credential")
	ErrCredentialReplayed  = errors.New("backend: replayed credential")
)

// AppendCredential appends the credential binding (seq, node, job, task)
// under secret to dst.
func AppendCredential(dst []byte, secret []byte, seq, node uint64, job, task int) []byte {
	return appendCredential(dst, hmac.New(sha256.New, secret), seq, node, job, task)
}

// appendCredential is AppendCredential over an already keyed MAC, which
// it resets first: the scheduler keys one per shard and reuses it for
// every token, since the key schedule costs more than the MAC itself.
func appendCredential(dst []byte, mac hash.Hash, seq, node uint64, job, task int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint64(dst, node)
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(job)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(task)))
	mac.Reset()
	mac.Write(dst[len(dst)-credentialBindingLen:])
	return mac.Sum(dst)
}

// DecodeCredential checks cred's shape and MAC under secret and returns
// its bound fields. It does not know which slot the credential was
// issued for — callers compare the fields against the submitting slot to
// tell a replay from a genuine echo.
func DecodeCredential(secret, cred []byte) (seq, node uint64, job, task int, err error) {
	var sum [sha256.Size]byte
	return decodeCredential(hmac.New(sha256.New, secret), &sum, cred)
}

// decodeCredential is DecodeCredential over an already keyed MAC (reset
// first) and a scratch array for the expected sum.
func decodeCredential(mac hash.Hash, sum *[sha256.Size]byte, cred []byte) (seq, node uint64, job, task int, err error) {
	if len(cred) != CredentialLen {
		return 0, 0, 0, 0, ErrCredentialMalformed
	}
	mac.Reset()
	mac.Write(cred[:credentialBindingLen])
	if !hmac.Equal(mac.Sum(sum[:0]), cred[credentialBindingLen:]) {
		return 0, 0, 0, 0, ErrCredentialForged
	}
	seq = binary.BigEndian.Uint64(cred)
	node = binary.BigEndian.Uint64(cred[8:])
	job = int(int64(binary.BigEndian.Uint64(cred[16:])))
	task = int(int64(binary.BigEndian.Uint64(cred[24:])))
	return seq, node, job, task, nil
}

// credVerdict classifies one result's credential.
type credVerdict int

const (
	credOK credVerdict = iota
	credMissing
	credForged   // malformed or failing the MAC: cryptographic proof of tampering
	credReplayed // genuine token, wrong slot: stale seq or another lease's binding
)

// verifyCredentialLocked classifies res's credential against the seq the
// task last issued to that node. Called with s.mu, ts's shard lock, held.
func (s *shard) verifyCredentialLocked(ts *taskState, res *TaskResult) credVerdict {
	if len(res.Credential) == 0 {
		return credMissing
	}
	seq, node, job, task, err := decodeCredential(s.mac, &s.macSum, res.Credential)
	if err != nil {
		return credForged
	}
	issued, ok := ts.issuedSeq(res.NodeID)
	if !ok || seq != issued || node != res.NodeID || job != res.JobID || task != res.TaskID {
		return credReplayed
	}
	return credOK
}

// issueCredentialLocked mints the credential for one dispatch of ts to
// node into buf, the assignment's own buffer, emptied by the caller
// (allocated here, CredentialLen bytes, the first time), and records
// its seq as the node's live binding. Called with s.mu held.
func (s *shard) issueCredentialLocked(ts *taskState, node, seq uint64, buf []byte) []byte {
	if cap(buf) < CredentialLen {
		buf = make([]byte, 0, CredentialLen)
	}
	ts.bindSeq(node, seq)
	return appendCredential(buf, s.mac, seq, node, ts.key.job, ts.key.task)
}

// Live credential bindings of one task: which seq was last issued to
// which node. The first node to be bound is held inline, which at
// Replication 1 is every binding there ever is; further replicas spill
// to credSeqs. Seqs start at 1, so a zero credSeq means no inline
// binding.

// bindSeq records seq as node's live binding.
func (ts *taskState) bindSeq(node, seq uint64) {
	if ts.credSeq == 0 || ts.credNode == node {
		ts.credNode, ts.credSeq = node, seq
		return
	}
	if ts.credSeqs == nil {
		ts.credSeqs = make(map[uint64]uint64, 2)
	}
	ts.credSeqs[node] = seq
}

// issuedSeq returns node's live binding.
func (ts *taskState) issuedSeq(node uint64) (uint64, bool) {
	if ts.credSeq != 0 && ts.credNode == node {
		return ts.credSeq, true
	}
	seq, ok := ts.credSeqs[node]
	return seq, ok
}

// unbindSeq drops node's binding. The inline slot may have been refilled
// by a node that spilled earlier, so both places are cleared.
func (ts *taskState) unbindSeq(node uint64) {
	if ts.credNode == node {
		ts.credSeq = 0
	}
	delete(ts.credSeqs, node)
}

// generateCredentialSecret draws a fresh MAC secret.
func generateCredentialSecret() ([]byte, error) {
	secret := make([]byte, credentialSecretLen)
	if _, err := rand.Read(secret); err != nil {
		return nil, err
	}
	return secret, nil
}

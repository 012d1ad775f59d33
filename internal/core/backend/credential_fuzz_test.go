package backend

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"testing"
)

// mintCredential is appendCredential keyed afresh from secret.
func mintCredential(dst, secret []byte, seq, node uint64, job, task int) []byte {
	return appendCredential(dst, hmac.New(sha256.New, secret), seq, node, job, task)
}

// openCredential is decodeCredential keyed afresh from secret.
func openCredential(secret, cred []byte) (seq, node uint64, job, task int, err error) {
	return decodeCredential(hmac.New(sha256.New, secret), new([sha256.Size]byte), cred)
}

// FuzzCredential hammers the credential codec with arbitrary secrets
// and tokens: decodeCredential must never panic, anything it accepts
// must be canonical (re-encoding the decoded binding under the same
// secret reproduces the token bit-exactly), a freshly issued credential
// must always round-trip, and any single-byte tamper of a fresh token
// must read as forged.
func FuzzCredential(f *testing.F) {
	secret := []byte("0123456789abcdef0123456789abcdef")
	good := mintCredential(nil, secret, 1, 2, 3, 4)
	tampered := append([]byte(nil), good...)
	tampered[CredentialLen-1] ^= 1
	f.Add(secret, good, byte(0))
	f.Add([]byte{}, good, byte(7))
	f.Add(secret, good[:CredentialLen-1], byte(1))
	f.Add(secret, tampered, byte(63))
	f.Add(secret, []byte{}, byte(0))
	f.Add(secret, mintCredential(nil, secret, ^uint64(0), 0, -1, 1<<31), byte(32))

	f.Fuzz(func(t *testing.T, secret, cred []byte, flip byte) {
		seq, node, job, task, err := openCredential(secret, cred)
		if err == nil {
			if re := mintCredential(nil, secret, seq, node, job, task); !bytes.Equal(re, cred) {
				t.Fatal("accepted credential is not canonical")
			}
		}
		// Issue a fresh token for a binding derived from the input and
		// check both directions of the verify contract.
		fseq := seq + uint64(flip) + 1
		fresh := mintCredential(nil, secret, fseq, node+1, job, task)
		s2, n2, j2, t2, err := openCredential(secret, fresh)
		if err != nil {
			t.Fatalf("fresh credential rejected: %v", err)
		}
		if s2 != fseq || n2 != node+1 || j2 != job || t2 != task {
			t.Fatalf("fresh credential binding mutated: (%d,%d,%d,%d) != (%d,%d,%d,%d)",
				s2, n2, j2, t2, fseq, node+1, job, task)
		}
		fresh[int(flip)%CredentialLen] ^= flip | 1 // guaranteed to change the byte
		if _, _, _, _, err := openCredential(secret, fresh); !errors.Is(err, ErrCredentialForged) {
			t.Fatalf("tampered credential not forged: %v", err)
		}
	})
}

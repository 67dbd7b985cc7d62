package kbs

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/sha256"
	"fmt"
	"io"
)

// Bundle is a secret wrapped for one guest: the broker's ephemeral X25519
// public key, the GCM nonce, and the ciphertext. Only the holder of the
// guest private key whose public half was attested can open it (Fig. 1
// step 8).
type Bundle struct {
	OwnerPub   []byte
	Nonce      []byte
	Ciphertext []byte
}

// DeriveKey draws an X25519 private key from rng. ecdh's GenerateKey may
// read one extra byte at random even from a seeded reader, but simulated
// keys and the bundles wrapped for them must be reproducible per seed, so
// the scalar is taken straight from the stream.
func DeriveKey(rng io.Reader) (*ecdh.PrivateKey, error) {
	var k [32]byte
	if _, err := io.ReadFull(rng, k[:]); err != nil {
		return nil, err
	}
	return ecdh.X25519().NewPrivateKey(k[:])
}

// WrapSecret seals secret for guestPub: ephemeral X25519 ECDH, then
// AES-256-GCM under the SHA-256 of the shared secret. rng drives the
// ephemeral key and nonce (seeded in simulation).
func WrapSecret(rng io.Reader, guestPub, secret []byte) (*Bundle, error) {
	priv, err := DeriveKey(rng)
	if err != nil {
		return nil, err
	}
	aead, err := channel(priv, guestPub, "guest")
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, 12)
	if _, err := io.ReadFull(rng, nonce); err != nil {
		return nil, err
	}
	ct := aead.Seal(nil, nonce, secret, nil)
	return &Bundle{OwnerPub: priv.PublicKey().Bytes(), Nonce: nonce, Ciphertext: ct}, nil
}

// UnwrapSecret opens a bundle with the guest's private key.
func UnwrapSecret(priv *ecdh.PrivateKey, b *Bundle) ([]byte, error) {
	aead, err := channel(priv, b.OwnerPub, "owner")
	if err != nil {
		return nil, err
	}
	return aead.Open(nil, b.Nonce, b.Ciphertext, nil)
}

// channel is the AES-256-GCM cipher both ends of a wrap derive: keyed by
// the SHA-256 of the X25519 secret priv shares with the peer's public key.
func channel(priv *ecdh.PrivateKey, peerPub []byte, peer string) (cipher.AEAD, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return nil, fmt.Errorf("kbs: %s key: %w", peer, err)
	}
	shared, err := priv.ECDH(pub)
	if err != nil {
		return nil, err
	}
	key := sha256.Sum256(shared)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

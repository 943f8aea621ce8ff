// Package dnssec implements the DNSSEC signing machinery the experiments
// need: RSA/SHA-256 (algorithm 8) key pairs at configurable sizes, RFC
// 4034 canonical RRset signatures, DS digests, NSEC chains, and whole-zone
// signing including the double-ZSK "rollover" configuration the paper
// replays (Fig 10: 1024/2048-bit ZSKs, normal and rollover).
package dnssec

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	mrand "math/rand"
	"sort"
	"strings"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/zone"
)

// Algorithm 8 is RSA/SHA-256 (RFC 5702), what the root used in the era
// the paper studies.
const AlgRSASHA256 = 8

// DNSKEY flag values.
const (
	FlagZSK = 256 // zone-signing key
	FlagKSK = 257 // key-signing key (SEP bit set)
)

// Key is a DNSSEC signing key: the private RSA key plus its public DNSKEY
// record form.
type Key struct {
	Flags   uint16
	Private *rsa.PrivateKey
	public  dnsmsg.DNSKEY
	tag     uint16
}

// GenerateKey creates an RSA key of the given modulus size. rng may be
// nil for crypto/rand; experiments pass a seeded source so zones (and
// therefore response sizes) are reproducible across runs. Because
// crypto/rsa deliberately defeats deterministic readers, a non-nil rng
// routes through our own deterministic prime search.
func GenerateKey(flags uint16, bits int, rng io.Reader) (*Key, error) {
	var priv *rsa.PrivateKey
	var err error
	if rng == nil {
		priv, err = rsa.GenerateKey(rand.Reader, bits)
	} else {
		priv, err = deterministicRSA(bits, rng)
	}
	if err != nil {
		return nil, fmt.Errorf("dnssec: generate %d-bit key: %w", bits, err)
	}
	k := &Key{Flags: flags, Private: priv}
	k.public = dnsmsg.DNSKEY{
		Flags:     flags,
		Protocol:  3,
		Algorithm: AlgRSASHA256,
		PublicKey: encodeRSAPublicKey(&priv.PublicKey),
	}
	k.tag = k.public.KeyTag()
	return k, nil
}

// DeterministicRand returns a seeded reader usable as GenerateKey's rng.
// RSA keygen from a deterministic stream gives reproducible zones.
func DeterministicRand(seed int64) io.Reader {
	return mrand.New(mrand.NewSource(seed))
}

// encodeRSAPublicKey produces the RFC 3110 wire form: exponent length,
// exponent, modulus.
func encodeRSAPublicKey(pub *rsa.PublicKey) []byte {
	e := big2bytes(uint64(pub.E))
	var out []byte
	if len(e) <= 255 {
		out = append(out, byte(len(e)))
	} else {
		out = append(out, 0)
		out = binary.BigEndian.AppendUint16(out, uint16(len(e)))
	}
	out = append(out, e...)
	return append(out, pub.N.Bytes()...)
}

func big2bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	i := 0
	for i < 7 && b[i] == 0 {
		i++
	}
	return b[i:]
}

// DNSKEY returns the public record payload.
func (k *Key) DNSKEY() dnsmsg.DNSKEY { return k.public }

// KeyTag returns the RFC 4034 key tag of the public key.
func (k *Key) KeyTag() uint16 { return k.tag }

// DS computes the SHA-256 delegation-signer digest for this key at the
// given owner (RFC 4509).
func (k *Key) DS(owner dnsmsg.Name) dnsmsg.DS {
	h := sha256.New()
	nameWire, _ := dnsmsg.AppendNameWire(nil, owner) //ldp:nolint errcheck — owner was validated at zone load; encoding it cannot fail
	h.Write(nameWire)
	rdata, _ := dnsmsg.AppendRData(nil, k.public) //ldp:nolint errcheck — DNSKEY rdata built by this package always encodes
	h.Write(rdata)
	return dnsmsg.DS{
		KeyTag:     k.tag,
		Algorithm:  AlgRSASHA256,
		DigestType: 2,
		Digest:     h.Sum(nil),
	}
}

// SignRRSet produces an RRSIG over the set using the RFC 4034 §3.1.8.1
// canonical ordering and form. inception/expiration are UNIX timestamps.
func (k *Key) SignRRSet(set *zone.RRSet, signer dnsmsg.Name, inception, expiration uint32) (dnsmsg.RR, error) {
	sig := dnsmsg.RRSIG{
		TypeCovered: set.Type,
		Algorithm:   AlgRSASHA256,
		Labels:      countSignLabels(set.Name),
		OrigTTL:     set.TTL,
		Expiration:  expiration,
		Inception:   inception,
		KeyTag:      k.tag,
		SignerName:  signer,
	}
	digest, err := rrsigDigest(sig, set)
	if err != nil {
		return dnsmsg.RR{}, err
	}
	raw, err := rsa.SignPKCS1v15(nil, k.Private, crypto.SHA256, digest)
	if err != nil {
		return dnsmsg.RR{}, fmt.Errorf("dnssec: sign %s/%s: %w", set.Name, set.Type, err)
	}
	sig.Signature = raw
	return dnsmsg.RR{Name: set.Name, Type: dnsmsg.TypeRRSIG, Class: set.Class, TTL: set.TTL, Data: sig}, nil
}

// countSignLabels implements the RRSIG Labels field: label count ignoring
// a leading wildcard.
func countSignLabels(n dnsmsg.Name) uint8 {
	c := n.LabelCount()
	if strings.HasPrefix(string(n), "*.") {
		c--
	}
	return uint8(c)
}

// rrsigDigest hashes the RRSIG rdata prefix plus the canonical rrset.
func rrsigDigest(sig dnsmsg.RRSIG, set *zone.RRSet) ([]byte, error) {
	h := sha256.New()
	pre := sig
	pre.Signature = nil
	preWire, err := dnsmsg.AppendRData(nil, pre)
	if err != nil {
		return nil, err
	}
	h.Write(preWire)

	// Canonical rrset: records sorted by rdata wire form.
	wires := make([][]byte, 0, len(set.Data))
	for _, d := range set.Data {
		rr := dnsmsg.RR{Name: set.Name, Type: set.Type, Class: set.Class, TTL: sig.OrigTTL, Data: d}
		w, err := dnsmsg.AppendCanonicalRR(nil, rr)
		if err != nil {
			return nil, err
		}
		wires = append(wires, w)
	}
	sort.Slice(wires, func(i, j int) bool { return string(wires[i]) < string(wires[j]) })
	for _, w := range wires {
		h.Write(w)
	}
	return h.Sum(nil), nil
}

// Verify checks an RRSIG over a set against this key's public half. Used
// by tests and by the resolver's validation path.
func (k *Key) Verify(sigRR dnsmsg.RR, set *zone.RRSet) error {
	sig, ok := sigRR.Data.(dnsmsg.RRSIG)
	if !ok {
		return fmt.Errorf("dnssec: not an RRSIG")
	}
	if sig.KeyTag != k.tag {
		return fmt.Errorf("dnssec: key tag %d does not match key %d", sig.KeyTag, k.tag)
	}
	digest, err := rrsigDigest(sig, set)
	if err != nil {
		return err
	}
	return rsa.VerifyPKCS1v15(&k.Private.PublicKey, crypto.SHA256, digest, sig.Signature)
}

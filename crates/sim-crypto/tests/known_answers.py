#!/usr/bin/env python3
"""Recompute every recorded sealed-box and symmetric-layer vector from scratch.

ChaCha20, HChaCha20 and Poly1305 (RFC 8439, draft-irtf-cfrg-xchacha-03)
and X25519 (RFC 7748's ladder) are written here on Python integers, with
the standard library only and nothing shared with the Rust code. So is the
workspace's `StdRng` (xoshiro256** seeded by splitmix64, see
`vendor/rand`), which draws the keys, ephemeral secrets and nonces the
vectors use.

Each computed vector must appear verbatim in the Rust test that pins it
(quotes, commas, `concat!` pieces and line continuations are ignored), so
a vector re-recorded in Rust without this script fails here.

    python3 crates/sim-crypto/tests/known_answers.py

Exits non-zero and names the vector on the first mismatch.
"""

import pathlib
import re
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF


# ChaCha20 and HChaCha20 ------------------------------------------------------


def rotl32(x, n):
    return ((x << n) | (x >> (32 - n))) & M32


def chacha_rounds(state):
    x = list(state)

    def qr(a, b, c, d):
        x[a] = (x[a] + x[b]) & M32
        x[d] = rotl32(x[d] ^ x[a], 16)
        x[c] = (x[c] + x[d]) & M32
        x[b] = rotl32(x[b] ^ x[c], 12)
        x[a] = (x[a] + x[b]) & M32
        x[d] = rotl32(x[d] ^ x[a], 8)
        x[c] = (x[c] + x[d]) & M32
        x[b] = rotl32(x[b] ^ x[c], 7)

    for _ in range(10):
        qr(0, 4, 8, 12)
        qr(1, 5, 9, 13)
        qr(2, 6, 10, 14)
        qr(3, 7, 11, 15)
        qr(0, 5, 10, 15)
        qr(1, 6, 11, 12)
        qr(2, 7, 8, 13)
        qr(3, 4, 9, 14)
    return x


def words(data):
    return [int.from_bytes(data[i : i + 4], "little") for i in range(0, len(data), 4)]


def to_bytes(ws):
    return b"".join(w.to_bytes(4, "little") for w in ws)


def chacha_state(key, counter, nonce):
    return words(b"expand 32-byte k") + words(key) + [counter] + words(nonce)


def chacha20_block(key, counter, nonce):
    state = chacha_state(key, counter, nonce)
    return to_bytes([(w + s) & M32 for w, s in zip(chacha_rounds(state), state)])


def chacha20_xor(key, counter, nonce, data):
    out = bytearray()
    for i in range(0, len(data), 64):
        block = chacha20_block(key, counter + i // 64, nonce)
        out += bytes(a ^ b for a, b in zip(data[i : i + 64], block))
    return bytes(out)


def hchacha20(key, inp):
    x = chacha_rounds(words(b"expand 32-byte k") + words(key) + words(inp))
    return to_bytes(x[:4] + x[12:])


# Poly1305 and the RFC 8439 AEAD ----------------------------------------------


def poly1305(key, msg):
    r = int.from_bytes(key[:16], "little") & 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
    s = int.from_bytes(key[16:], "little")
    p = (1 << 130) - 5
    h = 0
    for i in range(0, len(msg), 16):
        block = msg[i : i + 16] + b"\x01"
        h = (h + int.from_bytes(block, "little")) * r % p
    return ((h + s) & ((1 << 128) - 1)).to_bytes(16, "little")


def pad16(data):
    return data + bytes(-len(data) % 16)


def aead_seal(key, nonce, aad, plaintext):
    """RFC 8439 §2.8: (ciphertext, tag)."""
    ct = chacha20_xor(key, 1, nonce, plaintext)
    mac_data = pad16(aad) + pad16(ct) + len(aad).to_bytes(8, "little") + len(ct).to_bytes(8, "little")
    return ct, poly1305(chacha20_block(key, 0, nonce)[:32], mac_data)


# X25519 ------------------------------------------------------------------------

P25519 = (1 << 255) - 19


def x25519(scalar, u_bytes):
    k = bytearray(scalar)
    k[0] &= 248
    k[31] &= 127
    k[31] |= 64
    k = int.from_bytes(k, "little")
    x1 = int.from_bytes(u_bytes, "little") & ((1 << 255) - 1)
    x2, z2, x3, z3, swap = 1, 0, x1, 1, 0
    for t in reversed(range(255)):
        bit = (k >> t) & 1
        if swap ^ bit:
            x2, x3, z2, z3 = x3, x2, z3, z2
        swap = bit
        a, b = (x2 + z2) % P25519, (x2 - z2) % P25519
        aa, bb = a * a % P25519, b * b % P25519
        e = (aa - bb) % P25519
        c, d = (x3 + z3) % P25519, (x3 - z3) % P25519
        da, cb = d * a % P25519, c * b % P25519
        x3 = (da + cb) ** 2 % P25519
        z3 = x1 * (da - cb) ** 2 % P25519
        x2 = aa * bb % P25519
        z2 = e * (aa + 121665 * e) % P25519
    if swap:
        x2, z2 = x3, z3
    return (x2 * pow(z2, P25519 - 2, P25519) % P25519).to_bytes(32, "little")


BASE_POINT = (9).to_bytes(32, "little")


# The workspace's StdRng ------------------------------------------------------


class StdRng:
    def __init__(self, seed):
        state = seed
        seed_bytes = b""
        for _ in range(8):
            state = (state + 0x9E3779B97F4A7C15) & M64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
            z ^= z >> 31
            seed_bytes += (z & M32).to_bytes(4, "little")
        self.s = [int.from_bytes(seed_bytes[i : i + 8], "little") for i in range(0, 32, 8)]
        assert self.s != [0, 0, 0, 0]

    def next_u64(self):
        s = self.s
        rotl = lambda x, n: ((x << n) | (x >> (64 - n))) & M64
        result = (rotl((s[1] * 5) & M64, 7) * 9) & M64
        t = (s[1] << 17) & M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        return result

    def fill_bytes(self, n):
        out = b""
        while len(out) < n:
            out += self.next_u64().to_bytes(8, "little")
        return out[:n]


# The two formats ---------------------------------------------------------------


def seal_v2(recipient_pub, plaintext, rng):
    eph = rng.fill_bytes(32)
    eph_pub = x25519(eph, BASE_POINT)
    key = hchacha20(x25519(eph, recipient_pub), b"p2p-anon/seal/v2")
    ct, tag = aead_seal(key, bytes(12), recipient_pub + eph_pub, plaintext)
    return eph_pub + ct + tag


def sym_layer_v2(session_key, plaintext, rng):
    key = hchacha20(session_key, b"p2p-anon/sym/key")
    nonce = rng.fill_bytes(12)
    ct, tag = aead_seal(key, nonce, b"", plaintext)
    return nonce + ct + tag


# Checks --------------------------------------------------------------------------


def pinned_in(path, name, value):
    text = re.sub(r'[\s",\\]', "", (SRC / path).read_text())
    if value.hex() not in text:
        sys.exit(f"{name}: {value.hex()} is not pinned in {path}")
    print(f"ok  {name}")


def expect(name, got, want):
    if got.hex() != want:
        sys.exit(f"{name}: got {got.hex()}, want {want}")
    print(f"ok  {name}")


def main():
    # The primitives against their published vectors first.
    key = bytes(range(32))
    expect(
        "ChaCha20 block, RFC 8439 §2.3.2",
        chacha20_block(key, 1, bytes.fromhex("000000090000004a00000000")),
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
    )
    hchacha = hchacha20(key, bytes.fromhex("000000090000004a0000000031415927"))
    expect(
        "HChaCha20, draft-irtf-cfrg-xchacha-03 §2.2.1",
        hchacha,
        "82413b4227b27bfed30e42508a877d73a0f9e4d58a74a853c12ec41326d3ecdc",
    )
    pinned_in("chacha20.rs", "HChaCha20 vector in chacha20.rs", hchacha)
    expect(
        "Poly1305, RFC 8439 §2.5.2",
        poly1305(
            bytes.fromhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"),
            b"Cryptographic Forum Research Group",
        ),
        "a8061dc1305136c6c22b8baf0c0127a9",
    )
    expect(
        "X25519, RFC 7748 §5.2 vector 1",
        x25519(
            bytes.fromhex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"),
            bytes.fromhex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"),
        ),
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
    )

    # `sealed::tests::known_answers_sealed_v2`: key pair, then box, from
    # one generator; plaintext byte i is 7i + 3.
    for seed, length in [(1, 0), (2, 33), (3, 300)]:
        rng = StdRng(seed)
        recipient = x25519(rng.fill_bytes(32), BASE_POINT)
        plaintext = bytes((i * 7 + 3) & 0xFF for i in range(length))
        pinned_in("sealed.rs", f"sealed box v2, seed {seed}, {length} B", seal_v2(recipient, plaintext, rng))

    # `symmetric::tests::known_answers_wire_v2`: key bytes 00..1f, nonce
    # from seed 0x5eed.
    for length in [0, 1, 64, 300]:
        plaintext = bytes((i * 7 + 3) & 0xFF for i in range(length))
        layer = sym_layer_v2(key, plaintext, StdRng(0x5EED))
        pinned_in("symmetric.rs", f"symmetric layer v2, {length} B", layer)


if __name__ == "__main__":
    main()

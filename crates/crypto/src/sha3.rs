//! SHA-3 and SHAKE (FIPS 202) built on the Keccak-f\[1600\] permutation.
//!
//! The security monitor measures enclaves with SHA-3 (paper Section VI-A);
//! the same primitive backs HMAC, HKDF and the Ed25519-SHA3 signature scheme
//! in this workspace.

/// Number of rounds of Keccak-f[1600].
const KECCAK_ROUNDS: usize = 24;

/// Round constants for the iota step.
const ROUND_CONSTANTS: [u64; KECCAK_ROUNDS] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

/// Rotation offsets for the rho step, indexed `[y][x]` flattened as `x + 5*y`.
const RHO_OFFSETS: [u32; 25] = [
    0, 1, 62, 28, 27, //
    36, 44, 6, 55, 20, //
    3, 10, 43, 25, 39, //
    41, 45, 15, 21, 8, //
    18, 2, 61, 56, 14,
];

/// Applies the Keccak-f\[1600\] permutation to `state` in place.
pub fn keccak_f1600(state: &mut [u64; 25]) {
    for &rc in ROUND_CONSTANTS.iter() {
        // Theta.
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        let mut d = [0u64; 5];
        for x in 0..5 {
            d[x] = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
        }
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] ^= d[x];
            }
        }

        // Rho and pi.
        let mut b = [0u64; 25];
        for y in 0..5 {
            for x in 0..5 {
                let rotated = state[x + 5 * y].rotate_left(RHO_OFFSETS[x + 5 * y]);
                // pi: B[y, 2x+3y] = rot(A[x, y])
                b[y + 5 * ((2 * x + 3 * y) % 5)] = rotated;
            }
        }

        // Chi.
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] =
                    b[x + 5 * y] ^ ((!b[(x + 1) % 5 + 5 * y]) & b[(x + 2) % 5 + 5 * y]);
            }
        }

        // Iota.
        state[0] ^= rc;
    }
}

/// A Keccak sponge with a configurable rate and domain-separation suffix.
#[derive(Debug, Clone)]
struct KeccakSponge {
    state: [u64; 25],
    /// Rate in bytes.
    rate: usize,
    /// Number of bytes absorbed into the current block.
    offset: usize,
    /// Domain separation / padding suffix byte (0x06 for SHA-3, 0x1f for SHAKE).
    suffix: u8,
}

impl KeccakSponge {
    fn new(rate: usize, suffix: u8) -> Self {
        Self {
            state: [0u64; 25],
            rate,
            offset: 0,
            suffix,
        }
    }

    fn absorb(&mut self, data: &[u8]) {
        // Finish a partly filled block byte by byte (no bytes when the block
        // is empty), XOR each whole block in lane by lane (every rate here
        // is a whole number of lanes), and leave the tail in the state byte
        // by byte.
        let head = data.len().min((self.rate - self.offset) % self.rate);
        let (head, rest) = data.split_at(head);
        self.absorb_bytes(head);
        let mut blocks = rest.chunks_exact(self.rate);
        for block in &mut blocks {
            for (lane, word) in self.state.iter_mut().zip(block.chunks_exact(8)) {
                *lane ^= u64::from_le_bytes(word.try_into().expect("8-byte lane"));
            }
            keccak_f1600(&mut self.state);
        }
        self.absorb_bytes(blocks.remainder());
    }

    fn absorb_bytes(&mut self, data: &[u8]) {
        for &byte in data {
            let lane = self.offset / 8;
            let shift = (self.offset % 8) * 8;
            self.state[lane] ^= (byte as u64) << shift;
            self.offset += 1;
            if self.offset == self.rate {
                keccak_f1600(&mut self.state);
                self.offset = 0;
            }
        }
    }

    fn finalize_into(mut self, out: &mut [u8]) {
        // Padding: suffix bit pattern, then pad10*1 to the end of the rate.
        let lane = self.offset / 8;
        let shift = (self.offset % 8) * 8;
        self.state[lane] ^= (self.suffix as u64) << shift;
        let last_lane = (self.rate - 1) / 8;
        let last_shift = ((self.rate - 1) % 8) * 8;
        self.state[last_lane] ^= 0x80u64 << last_shift;
        keccak_f1600(&mut self.state);

        // Squeeze.
        let mut produced = 0;
        let mut block_offset = 0;
        while produced < out.len() {
            if block_offset == self.rate {
                keccak_f1600(&mut self.state);
                block_offset = 0;
            }
            let lane = block_offset / 8;
            let shift = (block_offset % 8) * 8;
            out[produced] = ((self.state[lane] >> shift) & 0xff) as u8;
            produced += 1;
            block_offset += 1;
        }
    }
}

macro_rules! sha3_impl {
    ($(#[$doc:meta])* $name:ident, $digest_len:expr, $rate:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            sponge: KeccakSponge,
        }

        impl $name {
            /// Digest length in bytes.
            pub const DIGEST_LEN: usize = $digest_len;
            /// Sponge rate (block size for HMAC purposes) in bytes.
            pub const RATE: usize = $rate;

            /// Creates a new incremental hasher.
            pub fn new() -> Self {
                Self { sponge: KeccakSponge::new($rate, 0x06) }
            }

            /// Absorbs `data` into the hash state.
            pub fn update(&mut self, data: &[u8]) {
                self.sponge.absorb(data);
            }

            /// Finalizes the hash and returns the digest.
            pub fn finalize(self) -> [u8; $digest_len] {
                let mut out = [0u8; $digest_len];
                self.sponge.finalize_into(&mut out);
                out
            }

            /// One-shot digest of `data`.
            ///
            /// # Examples
            ///
            /// ```
            #[doc = concat!("use sanctorum_crypto::sha3::", stringify!($name), ";")]
            #[doc = concat!("let d = ", stringify!($name), "::digest(b\"x\");")]
            #[doc = concat!("assert_eq!(d.len(), ", stringify!($digest_len), ");")]
            /// ```
            pub fn digest(data: &[u8]) -> [u8; $digest_len] {
                let mut h = Self::new();
                h.update(data);
                h.finalize()
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }
    };
}

sha3_impl!(
    /// SHA3-256 (FIPS 202).
    Sha3_256,
    32,
    136
);
sha3_impl!(
    /// SHA3-384 (FIPS 202).
    Sha3_384,
    48,
    104
);
sha3_impl!(
    /// SHA3-512 (FIPS 202).
    Sha3_512,
    64,
    72
);

/// SHAKE256 extendable-output function (FIPS 202).
#[derive(Debug, Clone)]
pub struct Shake256 {
    sponge: KeccakSponge,
}

impl Shake256 {
    /// Sponge rate in bytes.
    pub const RATE: usize = 136;

    /// Creates a new SHAKE256 instance.
    pub fn new() -> Self {
        Self {
            sponge: KeccakSponge::new(Self::RATE, 0x1f),
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.sponge.absorb(data);
    }

    /// Finalizes and squeezes `out.len()` bytes of output.
    pub fn finalize_into(self, out: &mut [u8]) {
        self.sponge.finalize_into(out);
    }

    /// One-shot XOF: hashes `data` and returns `N` output bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// use sanctorum_crypto::sha3::Shake256;
    /// let out: [u8; 64] = Shake256::xof(b"seed material");
    /// assert_ne!(out[..32], out[32..]);
    /// ```
    pub fn xof<const N: usize>(data: &[u8]) -> [u8; N] {
        let mut x = Self::new();
        x.update(data);
        let mut out = [0u8; N];
        x.finalize_into(&mut out);
        out
    }
}

impl Default for Shake256 {
    fn default() -> Self {
        Self::new()
    }
}

/// Formats a digest as lowercase hex (handy for logs, tests and the bench
/// harness tables).
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 202 / NIST CAVP known-answer vectors.
    #[test]
    fn sha3_256_empty() {
        assert_eq!(
            to_hex(&Sha3_256::digest(b"")),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
        );
    }

    #[test]
    fn sha3_256_abc() {
        assert_eq!(
            to_hex(&Sha3_256::digest(b"abc")),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
        );
    }

    #[test]
    fn sha3_512_empty() {
        assert_eq!(
            to_hex(&Sha3_512::digest(b"")),
            "a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a6\
             15b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26"
        );
    }

    #[test]
    fn sha3_512_abc() {
        assert_eq!(
            to_hex(&Sha3_512::digest(b"abc")),
            "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e\
             10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0"
        );
    }

    #[test]
    fn sha3_384_abc() {
        assert_eq!(
            to_hex(&Sha3_384::digest(b"abc")),
            "ec01498288516fc926459f58e2c6ad8df9b473cb0fc08c2596da7cf0e49be4b2\
             98d88cea927ac7f539f1edf228376d25"
        );
    }

    #[test]
    fn shake256_empty_32() {
        let out: [u8; 32] = Shake256::xof(b"");
        assert_eq!(
            to_hex(&out),
            "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Sha3_256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), Sha3_256::digest(data));
    }

    #[test]
    fn multi_block_input() {
        // Exercise inputs spanning multiple sponge blocks (rate = 136 bytes).
        let data = vec![0xa5u8; 1000];
        let d1 = Sha3_256::digest(&data);
        let mut h = Sha3_256::new();
        h.update(&data[..500]);
        h.update(&data[500..]);
        assert_eq!(h.finalize(), d1);
    }

    #[test]
    fn rate_boundary_inputs() {
        // Hash inputs of exactly rate-1, rate, rate+1 bytes; these exercise
        // the padding corner cases.
        for len in [135usize, 136, 137, 271, 272, 273] {
            let data = vec![0x3cu8; len];
            let mut h = Sha3_256::new();
            h.update(&data);
            assert_eq!(h.finalize(), Sha3_256::digest(&data), "len {len}");
        }
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(Sha3_256::digest(b"a"), Sha3_256::digest(b"b"));
        assert_ne!(Sha3_512::digest(b"a"), Sha3_512::digest(b"b"));
    }

    #[test]
    fn shake_output_lengths_are_prefix_consistent() {
        let a: [u8; 32] = Shake256::xof(b"seed");
        let b: [u8; 64] = Shake256::xof(b"seed");
        assert_eq!(a[..], b[..32]);
    }

    #[test]
    fn sha3_256_200_bytes_of_a3() {
        // NIST's 1600-bit message of repeated 0xa3: whole blocks plus a tail.
        assert_eq!(
            to_hex(&Sha3_256::digest(&[0xa3u8; 200])),
            "79f38adec5c20307a98ef76e8324afbfd46cfd81b22e3973c65fa1bd9de31787"
        );
    }

    #[test]
    fn keccak_permutation_changes_state() {
        let mut s = [0u64; 25];
        keccak_f1600(&mut s);
        // Keccak-f[1600] applied to the all-zero state, lanes in x + 5*y order
        // (the Keccak team's KeccakF-1600-IntermediateValues).
        #[rustfmt::skip]
        let expected: [u64; 25] = [
            0xf1258f7940e1dde7, 0x84d5ccf933c0478a, 0xd598261ea65aa9ee, 0xbd1547306f80494d,
            0x8b284e056253d057, 0xff97a42d7f8e6fd4, 0x90fee5a0a44647c4, 0x8c5bda0cd6192e76,
            0xad30a6f71b19059c, 0x30935ab7d08ffc64, 0xeb5aa93f2317d635, 0xa9a6e6260d712103,
            0x81a57c16dbcf555f, 0x43b831cd0347c826, 0x01f22f1a11a5569f, 0x05e5635a21d9ae61,
            0x64befef28cc970f2, 0x613670957bc46611, 0xb87c5a554fd00ecb, 0x8c3ee88a1ccf32c8,
            0x940c7922ae3a2614, 0x1841f924a2c509e4, 0x16f53526e70465c2, 0x75f644e97f30a13b,
            0xeaf1ff7b5ceca249,
        ];
        assert_eq!(s, expected);
    }

    /// The byte-at-a-time absorb the block path replaced, kept as the
    /// reference it is checked against.
    fn reference_absorb(sponge: &mut KeccakSponge, data: &[u8]) {
        for &byte in data {
            let lane = sponge.offset / 8;
            let shift = (sponge.offset % 8) * 8;
            sponge.state[lane] ^= (byte as u64) << shift;
            sponge.offset += 1;
            if sponge.offset == sponge.rate {
                keccak_f1600(&mut sponge.state);
                sponge.offset = 0;
            }
        }
    }

    /// Output length in bytes and a fresh sponge for each SHA-3 type (rates
    /// 136, 104, 72 and 136).
    fn sponges() -> [(usize, fn() -> KeccakSponge); 4] {
        [
            (Sha3_256::DIGEST_LEN, || Sha3_256::new().sponge),
            (Sha3_384::DIGEST_LEN, || Sha3_384::new().sponge),
            (Sha3_512::DIGEST_LEN, || Sha3_512::new().sponge),
            (64, || Shake256::new().sponge),
        ]
    }

    fn squeeze(sponge: KeccakSponge, out_len: usize) -> Vec<u8> {
        let mut out = vec![0u8; out_len];
        sponge.finalize_into(&mut out);
        out
    }

    /// Absorbs `data` in the given chunk lengths through the block path and
    /// in one piece through the reference, and compares the outputs.
    fn check_chunked(out_len: usize, new: fn() -> KeccakSponge, data: &[u8], cuts: &[usize]) {
        let mut block = new();
        let mut rest = data;
        for &cut in cuts {
            let (chunk, tail) = rest.split_at(cut);
            block.absorb(chunk);
            rest = tail;
        }
        block.absorb(rest);
        let mut reference = new();
        reference_absorb(&mut reference, data);
        let rate = reference.rate;
        assert_eq!(
            squeeze(block, out_len),
            squeeze(reference, out_len),
            "rate {rate} len {} cuts {cuts:?}",
            data.len()
        );
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn block_absorb_matches_reference_at_every_length() {
        for (out_len, new) in sponges() {
            let rate = new().rate;
            for len in 0..=3 * rate + 8 {
                check_chunked(out_len, new, &pattern(len), &[]);
            }
        }
    }

    #[test]
    fn block_absorb_matches_reference_at_every_split() {
        for (out_len, new) in sponges() {
            let data = pattern(3 * new().rate + 8);
            for cut in 0..=data.len() {
                check_chunked(out_len, new, &data, &[cut]);
            }
        }
    }

    #[test]
    fn block_absorb_matches_reference_on_random_chunkings() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: usize| {
            // xorshift64
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % bound as u64) as usize
        };
        for (out_len, new) in sponges() {
            let rate = new().rate;
            for _ in 0..64 {
                let data = pattern(next(3 * rate + 9));
                let mut cuts = Vec::new();
                let mut left = data.len();
                while left > 0 && cuts.len() < 8 {
                    let cut = next(left.min(rate + 9) + 1);
                    cuts.push(cut);
                    left -= cut;
                }
                check_chunked(out_len, new, &data, &cuts);
            }
        }
    }
}

//! A small, self-contained SHA-1 implementation.
//!
//! XIA derives content identifiers (CIDs) from the SHA-1 hash of the chunk
//! payload and host/service identifiers from the hash of a public key. The
//! evaluation only needs hashing for CID derivation and integrity checks, so
//! a dependency-free implementation keeps the workspace within the approved
//! crate set. SHA-1's cryptographic weakness is irrelevant here: it is used
//! as a content fingerprint exactly as the XIA prototype does.
//!
//! `unsafe` is confined to the private `shani` module (the SHA-NI
//! intrinsics). Its one entry point is a safe method on a `ShaNi` value
//! that only a successful CPUID probe can produce, so every call site in
//! this file is safe code and an unguarded dispatch does not compile.
//!
//! # Examples
//!
//! ```
//! let digest = xia_addr::sha1::sha1(b"abc");
//! assert_eq!(
//!     xia_addr::sha1::to_hex(&digest),
//!     "a9993e364706816aba3e25717850c26c9cd0d89d"
//! );
//! ```

/// Size of a SHA-1 digest in bytes.
pub(crate) const DIGEST_LEN: usize = 20;

/// Computes the SHA-1 digest of `data`.
pub fn sha1(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut hasher = Sha1::new();
    hasher.update(data);
    hasher.finalize()
}

/// Renders a digest as lowercase hex.
pub fn to_hex(digest: &[u8; DIGEST_LEN]) -> String {
    let mut s = String::with_capacity(DIGEST_LEN * 2);
    for b in digest {
        for nibble in [b >> 4, b & 0xf] {
            s.push(char::from_digit(u32::from(nibble), 16).unwrap_or('?'));
        }
    }
    s
}

/// Incremental SHA-1 hasher.
///
/// # Examples
///
/// ```
/// use xia_addr::sha1::Sha1;
/// let mut h = Sha1::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), xia_addr::sha1::sha1(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            state: [
                0x6745_2301,
                0xEFCD_AB89,
                0x98BA_DCFE,
                0x1032_5476,
                0xC3D2_E1F0,
            ],
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hasher.
    #[expect(
        clippy::indexing_slicing,
        reason = "buffer_len < 64, take <= 64 - buffer_len and take <= input.len(), and full <= input.len(); hot path, so the bounds stay checks rather than branches"
    )]
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.process_blocks(&block);
                self.buffer_len = 0;
            }
        }
        let full = input.len() - input.len() % 64;
        if full > 0 {
            self.process_blocks(&input[..full]);
        }
        let tail = &input[full..];
        if !tail.is_empty() {
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffer_len = tail.len();
        }
    }

    /// Consumes the hasher and returns the digest.
    #[expect(
        clippy::indexing_slicing,
        reason = "five state words fill exactly the 20 digest bytes"
    )]
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80 then zero-pad to 56 mod 64, then the 64-bit length.
        self.update_padding(&[0x80]);
        while self.buffer_len != 56 {
            self.update_padding(&[0]);
        }
        self.update_padding(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buffer_len, 0);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// `update` without touching `total_len` (used for padding only).
    #[expect(
        clippy::indexing_slicing,
        reason = "buffer_len < 64 is re-established two lines below every time it reaches the block size"
    )]
    fn update_padding(&mut self, data: &[u8]) {
        for &b in data {
            self.buffer[self.buffer_len] = b;
            self.buffer_len += 1;
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.process_blocks(&block);
                self.buffer_len = 0;
            }
        }
    }

    /// Compresses a whole run of 64-byte blocks, dispatching to the
    /// hardware SHA-NI path when the CPU has one and to the portable
    /// [`Self::process_block`] otherwise. Both compute the same FIPS
    /// 180-1 function, so digests — and everything derived from them
    /// (CIDs, golden traces) — are identical across machines.
    fn process_blocks(&mut self, blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = shani::ShaNi::detect() {
            hw.compress(&mut self.state, blocks);
            return;
        }
        let mut iter = blocks.chunks_exact(64);
        for block in &mut iter {
            if let Ok(block) = <&[u8; 64]>::try_from(block) {
                self.process_block(block);
            }
        }
    }

    /// The FIPS 180-1 compression function, round by round: the path on
    /// hosts without SHA-NI, and the reference the hardware path is
    /// checked against.
    #[expect(
        clippy::indexing_slicing,
        reason = "schedule offsets are const-bounded (i >= 16, so i-16 >= 0; i < 80 into [u32; 80]) and 64 bytes make 16 four-byte words"
    )]
    fn process_block(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (i, wi) in w.into_iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let t = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            (e, d, c, b, a) = (d, c, b.rotate_left(30), a, t);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Hardware SHA-1 compression via the x86 SHA extensions.
///
/// This is the one place in the crate (and the simulation stack) that
/// uses `unsafe`: the `core::arch` SHA-NI intrinsics. The round sequence
/// is the canonical Intel schedule — four message registers cycle through
/// `sha1msg1`/`xor`/`sha1msg2` to produce each next group of four `W`
/// words while `sha1rnds4` retires four rounds at a time. Selection is a
/// runtime CPUID check carried by the `ShaNi` proof token, and the
/// portable path computes the identical function, so results never
/// depend on the host.
#[cfg(target_arch = "x86_64")]
#[expect(
    unsafe_code,
    reason = "the SHA-NI intrinsics are unsafe fns; callers hold a ShaNi token proving CPUID support, and tests cross-check against the portable path"
)]
mod shani {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32,
        _mm_shuffle_epi8, _mm_xor_si128,
    };

    /// Proof that this CPU supports every feature [`compress`] is built
    /// with. The field is private and [`ShaNi::detect`] is the only
    /// constructor, so holding a value *is* the passed CPUID check.
    #[derive(Clone, Copy)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// Probes the CPU. `is_x86_feature_detected!` caches, so this is
        /// a couple of atomic loads after the first call.
        pub(super) fn detect() -> Option<ShaNi> {
            (std::is_x86_feature_detected!("sha")
                && std::is_x86_feature_detected!("ssse3")
                && std::is_x86_feature_detected!("sse4.1"))
            .then_some(ShaNi(()))
        }

        /// Compresses every 64-byte block in `blocks` into `state`.
        pub(super) fn compress(self, state: &mut [u32; 5], blocks: &[u8]) {
            // SAFETY: a `ShaNi` exists only because `detect` saw the
            // sha/ssse3/sse4.1 CPU features `compress` is compiled with.
            unsafe { compress(state, blocks) }
        }
    }

    /// Compresses every 64-byte block in `blocks` into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support sha, ssse3 and sse4.1 — which is what a
    /// [`ShaNi`] value attests.
    #[target_feature(enable = "sha", enable = "ssse3", enable = "sse4.1")]
    unsafe fn compress(state: &mut [u32; 5], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // Reverses all 16 bytes: big-endian words + reversed word order,
        // matching the (a,b,c,d)-in-descending-dwords register layout.
        let mask = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let mut abcd = _mm_set_epi32(
            state[0] as i32,
            state[1] as i32,
            state[2] as i32,
            state[3] as i32,
        );
        let mut e0 = _mm_set_epi32(state[4] as i32, 0, 0, 0);
        for block in blocks.chunks_exact(64) {
            let abcd_save = abcd;
            let e_save = e0;
            let p = block.as_ptr();
            let mut msg0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), mask);
            let mut msg1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), mask);
            let mut msg2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), mask);
            let mut msg3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), mask);

            // Rounds 0-3.
            e0 = _mm_add_epi32(e0, msg0);
            let mut e1 = abcd;
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
            // Rounds 4-7.
            e1 = _mm_sha1nexte_epu32(e1, msg1);
            e0 = abcd;
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
            msg0 = _mm_sha1msg1_epu32(msg0, msg1);
            // Rounds 8-11.
            e0 = _mm_sha1nexte_epu32(e0, msg2);
            e1 = abcd;
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
            msg1 = _mm_sha1msg1_epu32(msg1, msg2);
            msg0 = _mm_xor_si128(msg0, msg2);
            // Rounds 12-15.
            e1 = _mm_sha1nexte_epu32(e1, msg3);
            e0 = abcd;
            msg0 = _mm_sha1msg2_epu32(msg0, msg3);
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
            msg2 = _mm_sha1msg1_epu32(msg2, msg3);
            msg1 = _mm_xor_si128(msg1, msg3);
            // Rounds 16-19.
            e0 = _mm_sha1nexte_epu32(e0, msg0);
            e1 = abcd;
            msg1 = _mm_sha1msg2_epu32(msg1, msg0);
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
            msg3 = _mm_sha1msg1_epu32(msg3, msg0);
            msg2 = _mm_xor_si128(msg2, msg0);
            // Rounds 20-23.
            e1 = _mm_sha1nexte_epu32(e1, msg1);
            e0 = abcd;
            msg2 = _mm_sha1msg2_epu32(msg2, msg1);
            abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
            msg0 = _mm_sha1msg1_epu32(msg0, msg1);
            msg3 = _mm_xor_si128(msg3, msg1);
            // Rounds 24-27.
            e0 = _mm_sha1nexte_epu32(e0, msg2);
            e1 = abcd;
            msg3 = _mm_sha1msg2_epu32(msg3, msg2);
            abcd = _mm_sha1rnds4_epu32::<1>(abcd, e0);
            msg1 = _mm_sha1msg1_epu32(msg1, msg2);
            msg0 = _mm_xor_si128(msg0, msg2);
            // Rounds 28-31.
            e1 = _mm_sha1nexte_epu32(e1, msg3);
            e0 = abcd;
            msg0 = _mm_sha1msg2_epu32(msg0, msg3);
            abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
            msg2 = _mm_sha1msg1_epu32(msg2, msg3);
            msg1 = _mm_xor_si128(msg1, msg3);
            // Rounds 32-35.
            e0 = _mm_sha1nexte_epu32(e0, msg0);
            e1 = abcd;
            msg1 = _mm_sha1msg2_epu32(msg1, msg0);
            abcd = _mm_sha1rnds4_epu32::<1>(abcd, e0);
            msg3 = _mm_sha1msg1_epu32(msg3, msg0);
            msg2 = _mm_xor_si128(msg2, msg0);
            // Rounds 36-39.
            e1 = _mm_sha1nexte_epu32(e1, msg1);
            e0 = abcd;
            msg2 = _mm_sha1msg2_epu32(msg2, msg1);
            abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
            msg0 = _mm_sha1msg1_epu32(msg0, msg1);
            msg3 = _mm_xor_si128(msg3, msg1);
            // Rounds 40-43.
            e0 = _mm_sha1nexte_epu32(e0, msg2);
            e1 = abcd;
            msg3 = _mm_sha1msg2_epu32(msg3, msg2);
            abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
            msg1 = _mm_sha1msg1_epu32(msg1, msg2);
            msg0 = _mm_xor_si128(msg0, msg2);
            // Rounds 44-47.
            e1 = _mm_sha1nexte_epu32(e1, msg3);
            e0 = abcd;
            msg0 = _mm_sha1msg2_epu32(msg0, msg3);
            abcd = _mm_sha1rnds4_epu32::<2>(abcd, e1);
            msg2 = _mm_sha1msg1_epu32(msg2, msg3);
            msg1 = _mm_xor_si128(msg1, msg3);
            // Rounds 48-51.
            e0 = _mm_sha1nexte_epu32(e0, msg0);
            e1 = abcd;
            msg1 = _mm_sha1msg2_epu32(msg1, msg0);
            abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
            msg3 = _mm_sha1msg1_epu32(msg3, msg0);
            msg2 = _mm_xor_si128(msg2, msg0);
            // Rounds 52-55.
            e1 = _mm_sha1nexte_epu32(e1, msg1);
            e0 = abcd;
            msg2 = _mm_sha1msg2_epu32(msg2, msg1);
            abcd = _mm_sha1rnds4_epu32::<2>(abcd, e1);
            msg0 = _mm_sha1msg1_epu32(msg0, msg1);
            msg3 = _mm_xor_si128(msg3, msg1);
            // Rounds 56-59.
            e0 = _mm_sha1nexte_epu32(e0, msg2);
            e1 = abcd;
            msg3 = _mm_sha1msg2_epu32(msg3, msg2);
            abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
            msg1 = _mm_sha1msg1_epu32(msg1, msg2);
            msg0 = _mm_xor_si128(msg0, msg2);
            // Rounds 60-63.
            e1 = _mm_sha1nexte_epu32(e1, msg3);
            e0 = abcd;
            msg0 = _mm_sha1msg2_epu32(msg0, msg3);
            abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
            msg2 = _mm_sha1msg1_epu32(msg2, msg3);
            msg1 = _mm_xor_si128(msg1, msg3);
            // Rounds 64-67.
            e0 = _mm_sha1nexte_epu32(e0, msg0);
            e1 = abcd;
            msg1 = _mm_sha1msg2_epu32(msg1, msg0);
            abcd = _mm_sha1rnds4_epu32::<3>(abcd, e0);
            msg3 = _mm_sha1msg1_epu32(msg3, msg0);
            msg2 = _mm_xor_si128(msg2, msg0);
            // Rounds 68-71.
            e1 = _mm_sha1nexte_epu32(e1, msg1);
            e0 = abcd;
            msg2 = _mm_sha1msg2_epu32(msg2, msg1);
            abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
            msg3 = _mm_xor_si128(msg3, msg1);
            // Rounds 72-75.
            e0 = _mm_sha1nexte_epu32(e0, msg2);
            e1 = abcd;
            msg3 = _mm_sha1msg2_epu32(msg3, msg2);
            abcd = _mm_sha1rnds4_epu32::<3>(abcd, e0);
            // Rounds 76-79.
            e1 = _mm_sha1nexte_epu32(e1, msg3);
            e0 = abcd;
            abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);

            e0 = _mm_sha1nexte_epu32(e0, e_save);
            abcd = _mm_add_epi32(abcd, abcd_save);
        }
        state[0] = _mm_extract_epi32::<3>(abcd) as u32;
        state[1] = _mm_extract_epi32::<2>(abcd) as u32;
        state[2] = _mm_extract_epi32::<1>(abcd) as u32;
        state[3] = _mm_extract_epi32::<0>(abcd) as u32;
        state[4] = _mm_extract_epi32::<3>(e0) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        to_hex(&sha1(data))
    }

    #[test]
    fn empty_input() {
        assert_eq!(hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn abc() {
        assert_eq!(hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&data), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn exact_block_boundaries() {
        // 55/56/63/64/65 bytes straddle the padding edge cases.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let one_shot = sha1(&data);
            let mut incremental = Sha1::new();
            for b in &data {
                incremental.update(std::slice::from_ref(b));
            }
            assert_eq!(one_shot, incremental.finalize(), "len {len}");
        }
    }

    #[test]
    fn incremental_split_points_match() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let reference = sha1(&data);
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), reference, "split {split}");
        }
    }

    /// The dispatched digest (hardware on SHA-NI hosts) must match the
    /// portable compressor exactly — this is what makes CIDs and golden
    /// traces machine-independent.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_and_portable_compressions_agree() {
        let Some(shani) = shani::ShaNi::detect() else {
            return;
        };
        let blocks: Vec<u8> = (0..192u32)
            .map(|i| (i.wrapping_mul(31) % 251) as u8)
            .collect();
        let mut hw = Sha1::new();
        shani.compress(&mut hw.state, &blocks);
        let mut portable = Sha1::new();
        for block in blocks.chunks_exact(64) {
            if let Ok(block) = <&[u8; 64]>::try_from(block) {
                portable.process_block(block);
            }
        }
        assert_eq!(hw.state, portable.state);
    }

    #[test]
    fn to_hex_roundtrip_shape() {
        let d = sha1(b"x");
        let s = to_hex(&d);
        assert_eq!(s.len(), 40);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}

//! The workspace's one word-parallel FNV-1a implementation.
//!
//! Two layers need the same fast integrity hash: the snapshot layer's
//! entry digests and the binary shard container's per-record checksums
//! ([`crate::binfmt`]). This module is the single shared implementation,
//! so a throughput fix or a lane-count change lands everywhere at once
//! and the formats cannot silently drift apart. Its step,
//! [`fnv1a_word`], also folds the decomposition pipeline's content ids
//! and stage fingerprints.
//!
//! This is an integrity check against torn writes and flipped bits — not
//! a cryptographic MAC; same contract as plain FNV.

/// FNV-1a 64-bit offset basis: the seed of every fold.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step over a whole 64-bit word: `hash = (hash ^ word) ·
/// FNV_PRIME`. Every fold of this module is built on it; a byte is the
/// word of its value.
#[inline]
pub fn fnv1a_word(hash: &mut u64, word: u64) {
    *hash ^= word;
    *hash = hash.wrapping_mul(FNV_PRIME);
}

/// How many independent FNV-1a chains [`fnv1a64`] runs. Plain byte-wise
/// FNV-1a is a single xor→multiply dependency chain — one multiply
/// *latency* per byte, ~0.7 GB/s — and records here carry tens of
/// megabytes, so at that speed the checksum would cost a third of the
/// Gram arithmetic it protects. Eight chains, each folding a whole
/// little-endian `u64` per xor→multiply step, cut the multiply count 8×
/// and let the CPU overlap what remains (~5.7 GB/s measured).
pub const FNV_LANES: usize = 8;

/// Word-parallel FNV-1a over a byte slice: the input is consumed 64
/// bytes per round, word `j` of each round feeding lane `j` with one
/// `lane = (lane ^ word) * FNV_PRIME` step (the FNV-1a construction
/// applied to 64-bit units); trailing bytes feed lane 0 byte-wise, and
/// the eight lane digests plus the total length are folded with a final
/// canonical byte-wise FNV-1a pass. Any flipped bit perturbs its lane
/// and every subsequent multiply, and the length term keeps shifted or
/// truncated payloads from colliding trivially.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; FNV_LANES];
    let mut rounds = bytes.chunks_exact(8 * FNV_LANES);
    for round in &mut rounds {
        for (lane, word) in lanes.iter_mut().zip(round.chunks_exact(8)) {
            fnv1a_word(
                lane,
                u64::from_le_bytes(word.try_into().expect("exact word")),
            );
        }
    }
    lanes[0] = fnv1a64_bytewise(lanes[0], rounds.remainder());
    let mut h = FNV_OFFSET;
    for word in lanes.iter().chain(std::iter::once(&(bytes.len() as u64))) {
        h = fnv1a64_bytewise(h, &word.to_le_bytes());
    }
    h
}

/// The canonical byte-wise FNV-1a fold — the primitive the word-parallel
/// construction is defined in terms of. Exposed so equivalence tests can
/// rebuild [`fnv1a64`] from first principles.
pub fn fnv1a64_bytewise(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    bytes.iter().for_each(|&b| fnv1a_word(&mut h, u64::from(b)));
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A straight-line reference of the word-parallel construction built
    /// only on [`fnv1a64_bytewise`] and explicit indexing: lane `j`
    /// consumes words `j, j+8, j+16, …` of the 64-byte rounds, the
    /// remainder feeds lane 0 byte-wise, and the digest is the canonical
    /// byte-wise fold of the lanes plus the length.
    fn reference(bytes: &[u8]) -> u64 {
        let whole = bytes.len() / (8 * FNV_LANES) * (8 * FNV_LANES);
        let mut lanes = [FNV_OFFSET; FNV_LANES];
        for (w, word) in bytes[..whole].chunks_exact(8).enumerate() {
            let lane = &mut lanes[w % FNV_LANES];
            *lane ^= u64::from_le_bytes(word.try_into().unwrap());
            *lane = lane.wrapping_mul(FNV_PRIME);
        }
        lanes[0] = fnv1a64_bytewise(lanes[0], &bytes[whole..]);
        let mut h = FNV_OFFSET;
        for lane in lanes {
            h = fnv1a64_bytewise(h, &lane.to_le_bytes());
        }
        fnv1a64_bytewise(h, &(bytes.len() as u64).to_le_bytes())
    }

    #[test]
    fn word_parallel_digest_matches_the_bytewise_reference() {
        let mut data = Vec::new();
        let mut s = 0x1234_5678_9abc_def0u64;
        for len in [0usize, 1, 7, 8, 63, 64, 65, 128, 1000, 4096, 4099] {
            data.clear();
            for _ in 0..len {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                data.push((s >> 32) as u8);
            }
            assert_eq!(
                fnv1a64(&data),
                reference(&data),
                "len {len}: word-parallel fold diverged from the reference"
            );
        }
    }

    #[test]
    fn digest_is_sensitive_to_every_bit_and_to_length() {
        let base: Vec<u8> = (0..200u16).map(|i| (i * 7 + 3) as u8).collect();
        let h = fnv1a64(&base);
        // A flip anywhere — word region or byte-wise remainder — changes
        // the digest.
        for at in [0usize, 63, 64, 127, 128, 199] {
            let mut corrupt = base.clone();
            corrupt[at] ^= 0x10;
            assert_ne!(fnv1a64(&corrupt), h, "flip at byte {at} went unnoticed");
        }
        // Truncation changes the digest even when the removed bytes are
        // zeros (the length term).
        let mut padded = base.clone();
        padded.push(0);
        assert_ne!(fnv1a64(&padded), h);
        // Empty input is well-defined and distinct from a single zero.
        assert_ne!(fnv1a64(&[]), fnv1a64(&[0]));
    }

    #[test]
    fn bytewise_fold_matches_known_fnv1a_vectors() {
        // Canonical FNV-1a test vectors (offset-basis seeded).
        assert_eq!(fnv1a64_bytewise(FNV_OFFSET, b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64_bytewise(FNV_OFFSET, b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64_bytewise(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
    }
}

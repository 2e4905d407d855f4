//! `checksum64`, the store format's checksum: the lane-parallel
//! implementation must equal a naive one-word-at-a-time reference
//! written straight from the definition in the `binfmt` module docs,
//! must notice every single-byte flip and every change of length, and
//! must never drift (pinned vectors).

use gdelt_columnar::binfmt::checksum64;
use proptest::prelude::*;

const LANE_SEED: [u64; 4] =
    [0x6a09_e667_f3bc_c908, 0xbb67_ae85_84ca_a73b, 0x3c6e_f372_fe94_f82b, 0xa54f_f53a_5f1d_36f1];
const LANE_MUL: u64 = 0x9e37_79b1_85eb_ca87;
const FOLD_MUL: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// The definition, one little-endian word at a time: word `k` of the
/// whole 32-byte blocks goes to lane `k % 4`; everything after them is
/// folded in 8-byte groups, the last zero-padded.
fn reference(bytes: &[u8]) -> u64 {
    let word = |at: usize| {
        let mut w = [0u8; 8];
        let end = (at + 8).min(bytes.len());
        w[..end - at].copy_from_slice(&bytes[at..end]);
        u64::from_le_bytes(w)
    };
    let fold = |acc: u64, w: u64| {
        let m = (acc ^ w).wrapping_mul(FOLD_MUL);
        m ^ (m >> 29)
    };
    let block_words = bytes.len() / 32 * 4;
    let mut lane = LANE_SEED;
    for k in 0..block_words {
        lane[k % 4] = (lane[k % 4] ^ word(8 * k)).wrapping_mul(LANE_MUL);
    }
    let mut acc = bytes.len() as u64;
    for l in lane {
        acc = fold(acc, l);
    }
    let mut at = 8 * block_words;
    while at < bytes.len() {
        acc = fold(acc, word(at));
        at += 8;
    }
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(0xff51_afd7_ed55_8ccd);
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    acc ^ (acc >> 33)
}

/// Deterministic filler (xorshift64), so the exhaustive small-length
/// tests need no proptest shrinking.
fn filler(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

#[test]
fn pinned_reference_vectors() {
    let block: Vec<u8> = (0u8..33).collect();
    assert_eq!(checksum64(b""), 0xf28e_e635_ad1e_ab49);
    assert_eq!(checksum64(b"a"), 0x1afd_a992_0685_29aa);
    assert_eq!(checksum64(&block[..32]), 0xd3bc_75ac_c397_6641);
    assert_eq!(checksum64(&block), 0x1013_7a64_7f60_4f05);
}

#[test]
fn equals_the_reference_at_every_length_to_200() {
    for len in 0..=200 {
        let bytes = filler(len, 0x9e37_79b9 + len as u64);
        assert_eq!(checksum64(&bytes), reference(&bytes), "length {len}");
    }
}

#[test]
fn every_single_byte_flip_changes_the_digest() {
    for len in [1, 7, 8, 9, 31, 32, 33, 64, 95, 200] {
        let clean = filler(len, 42);
        let want = checksum64(&clean);
        for pos in 0..len {
            for xor in [0x01, 0x80, 0xff] {
                let mut hit = clean.clone();
                hit[pos] ^= xor;
                assert_ne!(checksum64(&hit), want, "len {len}: flip {xor:#x} at {pos} unnoticed");
            }
        }
    }
}

#[test]
fn every_truncation_and_extension_changes_the_digest() {
    // All-zero input is the hard case: a shorter or longer run of
    // zeros differs from it in nothing but the length.
    for bytes in [filler(200, 7), vec![0u8; 200]] {
        let digests: Vec<u64> = (0..=bytes.len()).map(|n| checksum64(&bytes[..n])).collect();
        let mut distinct = digests.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), digests.len(), "two prefixes share a digest");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Long inputs, with every tail length mod 32 reachable.
    #[test]
    fn equals_the_reference_on_long_inputs(
        body in prop::collection::vec(any::<u8>(), 0..8_192),
        tail in prop::collection::vec(any::<u8>(), 0..32),
        skew in 0usize..8,
    ) {
        let mut bytes = body;
        bytes.extend_from_slice(&tail);
        // The partition digests hash sub-slices at arbitrary alignment.
        let bytes = &bytes[skew.min(bytes.len())..];
        prop_assert_eq!(checksum64(bytes), reference(bytes));
    }

    #[test]
    fn any_flip_or_resize_is_noticed(
        bytes in prop::collection::vec(any::<u8>(), 1..4_096),
        pos in any::<usize>(),
        xor in 1u8..=255,
        grow in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let want = checksum64(&bytes);
        let at = pos % bytes.len();
        let mut flipped = bytes.clone();
        flipped[at] ^= xor;
        prop_assert_ne!(checksum64(&flipped), want);
        prop_assert_ne!(checksum64(&bytes[..at]), want);
        let mut longer = bytes.clone();
        longer.extend_from_slice(&grow);
        prop_assert_ne!(checksum64(&longer), want);
    }
}

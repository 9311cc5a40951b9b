//! Dense bit packing of fixed-width codes.
//!
//! Bucket ids produced by quantization are `B`-bit integers (`B ∈ 1..=16`).
//! They are packed LSB-first into a contiguous byte buffer — the Rust
//! equivalent of the paper's Fig. 3 step that concatenates 2-bit codes into
//! 32-bit unsigned integers.
//!
//! The unit of work is a block of 64 codes: at any width `B` a full
//! block is exactly `B` little-endian `u64` words (`8·B` bytes), so blocks
//! start and end on word boundaries and can be packed independently from a
//! stack array the quantizer has just filled. The widths the Bit-Tuner
//! picks (1, 2, 4, 8, 16) go through a const-generic kernel whose shifts
//! are compile-time constants and whose word loop unrolls fully; every
//! other width and the ragged final block go through one generic
//! accumulator loop. All paths produce byte for byte the layout of the
//! bit-at-a-time reference kept in the tests (LSB-first emission of an
//! accumulator *is* little-endian byte order).

/// Codes per packing block: the smallest count that fills whole `u64`
/// words at every width.
pub(crate) const BLOCK: usize = 64;

/// Packs `codes` (each `< 2^bits`) into a byte buffer, LSB-first.
///
/// # Panics
/// Panics if `bits` is 0 or greater than 32, or if any code needs more than
/// `bits` bits.
pub fn pack(codes: &[u32], bits: u8) -> Vec<u8> {
    assert!((1..=32).contains(&bits), "bit width {bits} out of range");
    let mask = code_mask(bits);
    for &code in codes {
        assert!(code <= mask, "code {code} does not fit in {bits} bits");
    }
    let mut out = vec![0u8; packed_len(codes.len(), bits)];
    for (block, dst) in codes.chunks(BLOCK).zip(out.chunks_mut(block_bytes(bits))) {
        with_word_width!(bits, pack_block_at(block, bits, dst));
    }
    out
}

/// Unpacks `count` codes of width `bits` from a buffer produced by [`pack`].
///
/// # Panics
/// Panics if `bits ∉ 1..=32` or the buffer is too short for `count` codes.
pub fn unpack(bytes: &[u8], bits: u8, count: usize) -> Vec<u32> {
    assert!((1..=32).contains(&bits), "bit width {bits} out of range");
    let need = packed_len(count, bits);
    assert!(
        bytes.len() >= need,
        "buffer of {} bytes too short for {count} codes of {bits} bits",
        bytes.len()
    );
    let mut codes = vec![0u32; count];
    for (block, src) in codes.chunks_mut(BLOCK).zip(bytes[..need].chunks(block_bytes(bits))) {
        with_word_width!(bits, unpack_block_at(src, bits, block));
    }
    codes
}

/// Number of bytes [`pack`] produces for `count` codes of width `bits`.
pub fn packed_len(count: usize, bits: u8) -> usize {
    (count * bits as usize).div_ceil(8)
}

/// Bytes one full [`BLOCK`] occupies at width `bits`.
pub(crate) fn block_bytes(bits: u8) -> usize {
    BLOCK / 8 * bits as usize
}

/// Whether full blocks at width `bits` go through the const-generic word
/// kernels (the widths the Bit-Tuner picks) rather than the serial loop.
pub(crate) fn has_word_kernel(bits: u8) -> bool {
    matches!(bits, 1 | 2 | 4 | 8 | 16)
}

/// Expands to `$f::<W>($args)` with `W` the width `$bits` if full blocks at
/// that width have a word kernel (the widths the Bit-Tuner picks) and `0`
/// if they go through the serial loop — so that a block loop selects its
/// kernel once, outside the loop.
macro_rules! with_word_width {
    ($bits:expr, $f:ident $args:tt) => {
        match $bits {
            1 => $f::<1> $args,
            2 => $f::<2> $args,
            4 => $f::<4> $args,
            8 => $f::<8> $args,
            16 => $f::<16> $args,
            _ => $f::<0> $args,
        }
    };
}
pub(crate) use with_word_width;

/// Packs one block — at most [`BLOCK`] codes — into `out`, which must be
/// exactly `packed_len(codes.len(), bits)` bytes, with the width chosen by
/// [`with_word_width`] (`BITS == 0`: no word kernel). The caller guarantees
/// every code fits in `bits` bits; an oversized code would bleed into its
/// neighbours ([`pack`] is the checked entry point).
#[inline(always)]
pub(crate) fn pack_block_at<const BITS: u32>(codes: &[u32], bits: u8, out: &mut [u8]) {
    if BITS != 0 {
        if let Ok(full) = <&[u32; BLOCK]>::try_from(codes) {
            return pack_words::<BITS>(full, out);
        }
    }
    pack_any(codes, bits, out);
}

/// Any width, any length, one code at a time: a serial accumulator no
/// vector width helps, so it is left out of line (one baseline copy, as
/// before the tiers) rather than inlined into every tier's block loop.
fn pack_any(codes: &[u32], bits: u8, out: &mut [u8]) {
    // Drain four bytes per flush (the accumulator peaks at 31 + 32 bits in
    // flight, so it cannot overflow).
    let (mut acc, mut nbits, mut pos) = (0u64, 0u32, 0usize);
    for &code in codes {
        acc |= (code as u64) << nbits;
        nbits += bits as u32;
        if nbits >= 32 {
            out[pos..pos + 4].copy_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            nbits -= 32;
            pos += 4;
        }
    }
    for byte in &mut out[pos..] {
        *byte = acc as u8;
        acc >>= 8;
    }
}

/// A full block at a width that divides 64: `64 / BITS` codes per word.
#[inline(always)]
fn pack_words<const BITS: u32>(codes: &[u32; BLOCK], out: &mut [u8]) {
    let per_word = (64 / BITS) as usize;
    for (lane, dst) in codes.chunks_exact(per_word).zip(out.chunks_exact_mut(8)) {
        let mut word = 0u64;
        for (i, &code) in lane.iter().enumerate() {
            word |= (code as u64) << (i as u32 * BITS);
        }
        dst.copy_from_slice(&word.to_le_bytes());
    }
}

/// Mirror image of [`pack_block_at`]: fills `codes` (at most [`BLOCK`])
/// from `bytes`, which must hold at least `packed_len(codes.len(), bits)`
/// bytes.
#[inline(always)]
pub(crate) fn unpack_block_at<const BITS: u32>(bytes: &[u8], bits: u8, codes: &mut [u32]) {
    if BITS != 0 {
        if let Ok(full) = <&mut [u32; BLOCK]>::try_from(&mut *codes) {
            return unpack_words::<BITS>(bytes, full);
        }
    }
    unpack_any(bytes, bits, codes);
}

/// Mirror image of [`pack_any`].
fn unpack_any(bytes: &[u8], bits: u8, codes: &mut [u32]) {
    let mask = code_mask(bits) as u64;
    let (mut acc, mut nbits, mut pos) = (0u64, 0u32, 0usize);
    for code in codes {
        while nbits < bits as u32 {
            // In-bounds by the length precondition.
            acc |= (bytes[pos] as u64) << nbits;
            pos += 1;
            nbits += 8;
        }
        *code = (acc & mask) as u32;
        acc >>= bits;
        nbits -= bits as u32;
    }
}

#[inline(always)]
fn unpack_words<const BITS: u32>(bytes: &[u8], codes: &mut [u32; BLOCK]) {
    let per_word = (64 / BITS) as usize;
    let mask = (1u64 << BITS) - 1;
    for (lane, src) in codes.chunks_exact_mut(per_word).zip(bytes.chunks_exact(8)) {
        let word =
            u64::from_le_bytes([src[0], src[1], src[2], src[3], src[4], src[5], src[6], src[7]]);
        for (i, code) in lane.iter_mut().enumerate() {
            *code = ((word >> (i as u32 * BITS)) & mask) as u32;
        }
    }
}

fn code_mask(bits: u8) -> u32 {
    if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

/// The original bit-at-a-time codecs, kept as the references the block
/// kernels (here and in [`crate::quantize`]) must match byte for byte.
#[cfg(test)]
pub(crate) mod reference {
    /// Packs `codes` one bit-run at a time.
    pub fn pack_reference(codes: &[u32], bits: u8) -> Vec<u8> {
        let total_bits = codes.len() * bits as usize;
        let mut out = vec![0u8; total_bits.div_ceil(8)];
        let mut bitpos = 0usize;
        for &code in codes {
            let mut remaining = bits as usize;
            let mut value = code as u64;
            while remaining > 0 {
                let byte = bitpos / 8;
                let offset = bitpos % 8;
                let take = (8 - offset).min(remaining);
                out[byte] |= ((value & ((1u64 << take) - 1)) as u8) << offset;
                value >>= take;
                bitpos += take;
                remaining -= take;
            }
        }
        out
    }

    /// Unpacks `count` codes one bit-run at a time.
    pub fn unpack_reference(bytes: &[u8], bits: u8, count: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(count);
        let mut bitpos = 0usize;
        for _ in 0..count {
            let mut value = 0u64;
            let mut got = 0usize;
            while got < bits as usize {
                let byte = bitpos / 8;
                let offset = bitpos % 8;
                let take = (8 - offset).min(bits as usize - got);
                let chunk = ((bytes[byte] >> offset) as u64) & ((1u64 << take) - 1);
                value |= chunk << got;
                got += take;
                bitpos += take;
            }
            out.push(value as u32);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{pack_reference, unpack_reference};
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_two_bit_example_from_paper() {
        // Fig. 3 packs 8 two-bit codes into 16 bits.
        let codes = [2u32, 1, 0, 3, 2, 2, 1, 0];
        let packed = pack(&codes, 2);
        assert_eq!(packed.len(), 2);
        assert_eq!(unpack(&packed, 2, 8), codes);
    }

    #[test]
    fn pack_single_bit() {
        let codes = [1u32, 0, 1, 1, 0, 0, 0, 1, 1];
        let packed = pack(&codes, 1);
        assert_eq!(packed.len(), 2);
        assert_eq!(unpack(&packed, 1, 9), codes);
    }

    #[test]
    fn pack_crossing_byte_boundaries() {
        // 3-bit codes straddle byte boundaries.
        let codes = [7u32, 0, 5, 3, 6, 1, 2, 4];
        let packed = pack(&codes, 3);
        assert_eq!(packed.len(), 3);
        assert_eq!(unpack(&packed, 3, 8), codes);
    }

    #[test]
    fn pack_sixteen_bit() {
        let codes = [0xFFFFu32, 0, 0xABCD, 0x1234];
        assert_eq!(unpack(&pack(&codes, 16), 16, 4), codes);
    }

    #[test]
    fn pack_thirty_two_bit() {
        let codes = [u32::MAX, 0, 0xDEAD_BEEF, 1];
        assert_eq!(unpack(&pack(&codes, 32), 32, 4), codes);
    }

    #[test]
    fn pack_empty_slice() {
        assert!(pack(&[], 4).is_empty());
        assert!(unpack(&[], 4, 0).is_empty());
    }

    #[test]
    fn packed_len_matches_pack_output() {
        for bits in [1u8, 2, 3, 4, 5, 7, 8, 11, 16] {
            let codes: Vec<u32> = (0..13).map(|i| i % (1 << bits.min(16))).collect();
            assert_eq!(pack(&codes, bits).len(), packed_len(13, bits), "bits={bits}");
        }
    }

    #[test]
    fn matches_reference_on_ragged_lengths() {
        // Every width the quantizer accepts (plus the 32-bit ceiling), at
        // every length from empty through two blocks: 0–63 trailing codes,
        // a ragged final word and 0–7 trailing bits in the final byte.
        for bits in (1u8..=16).chain([32]) {
            let mask = code_mask(bits);
            for len in 0..=2 * BLOCK + 1 {
                let codes: Vec<u32> =
                    (0..len).map(|i| (i as u32).wrapping_mul(2_654_435_761) & mask).collect();
                let new = pack(&codes, bits);
                let old = pack_reference(&codes, bits);
                assert_eq!(new, old, "bits={bits} len={len}");
                assert_eq!(unpack(&new, bits, len), unpack_reference(&old, bits, len));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pack_rejects_oversized_code() {
        let _ = pack(&[4], 2);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn unpack_rejects_short_buffer() {
        let _ = unpack(&[0u8], 8, 2);
    }

    proptest! {
        #[test]
        fn pack_unpack_round_trip(
            bits in 1u8..=16,
            raw in proptest::collection::vec(any::<u32>(), 0..200),
        ) {
            let mask = (1u32 << bits) - 1;
            let codes: Vec<u32> = raw.iter().map(|&x| x & mask).collect();
            let packed = pack(&codes, bits);
            prop_assert_eq!(packed.len(), packed_len(codes.len(), bits));
            prop_assert_eq!(unpack(&packed, bits, codes.len()), codes);
        }

        /// The block codecs must be byte-for-byte and code-for-code
        /// interchangeable with the bit-by-bit reference loops —
        /// packed buffers are on the (simulated) wire, so a format drift
        /// would silently change every traffic ledger.
        #[test]
        fn word_at_a_time_matches_bit_by_bit_reference(
            bits in 1u8..=16,
            raw in proptest::collection::vec(any::<u32>(), 0..200),
        ) {
            let mask = code_mask(bits);
            let codes: Vec<u32> = raw.iter().map(|&x| x & mask).collect();
            let new = pack(&codes, bits);
            let old = pack_reference(&codes, bits);
            prop_assert_eq!(&new, &old, "packed bytes diverge at bits={}", bits);
            prop_assert_eq!(
                unpack(&old, bits, codes.len()),
                unpack_reference(&old, bits, codes.len())
            );
        }
    }
}

//! Bucket quantization of dense matrices (`C_bits` in the paper).
//!
//! A matrix is compressed by splitting a value range `[min, max]` into `2^B`
//! equal buckets and replacing every coordinate with its bucket id;
//! reconstruction uses the bucket midpoint. The range is the data's own
//! (the paper's Alg. 6 line 4), one per block of rows ([`RangeBlock`]): the
//! whole message in training, each row in a served reply. On the wire, and
//! in memory after the header, a message is a 9-byte header — rows, cols
//! (`u32` LE), bits — then per block its range (min, max: `f32` LE) and its
//! packed codes from a byte boundary, so one block decodes on its own. A
//! training message is thus 17 bytes of header and range, then the codes.
//! The block kind is not on the wire: the decoder is told it.
//!
//! ## Instruction-set tiers
//!
//! The quantize and decode passes are plain safe loops compiled once per
//! instruction-set tier by `ec_tensor::isa::dispatch_on` — this crate stays
//! `#![forbid(unsafe_code)]` and only calls that safe function — and the
//! public entry points run the widest tier the CPU has. Every operation in
//! them is elementwise (`(x − min)·scale`, two selects, the `2^23` trick,
//! shifts and ORs into a word; `min + (c + 0.5)·width` on the way back), no
//! tier enables FMA, and the range scan is an exact min/max, so a wider
//! vector changes how many coordinates advance per instruction and nothing
//! about any of them: the packed bytes and the reconstruction are
//! bit-identical at every tier ([`Quantized::compress_at`] /
//! [`Quantized::decompress_into_at`] exist so the tests can hold each tier
//! to the references). Only full 64-code blocks at a Bit-Tuner width run
//! wide; see [`wide_prefix`] for why the rest stays on the baseline.
//!
//! ## Non-finite input
//!
//! [`Quantized::compress`] and [`Quantized::decompress`] are total. A
//! block's range is taken over its *finite* entries only, so one stray
//! infinity cannot stretch the buckets of its finite neighbours: `+Inf`
//! lands in the top bucket, `−Inf` and NaN in bucket 0, and each
//! reconstructs as that bucket's midpoint. A block with no finite entry
//! gets the range `[0, 0]` and reconstructs as all zeros. (Finite entries
//! more than `f32::MAX` apart make the range itself overflow; such a block
//! reconstructs as `+Inf`, without panicking.)

use crate::bitpack::{self, BLOCK};
use ec_tensor::isa::{self, Tier};
use ec_tensor::Matrix;

/// Largest supported bit width. The paper's Bit-Tuner chooses from
/// `{1, 2, 4, 8, 16}`.
pub const MAX_BITS: u8 = 16;

/// Wire header of a [`Quantized`]: rows, cols (`u32` each), bits (`u8`).
const HEADER_BYTES: usize = 4 + 4 + 1;

/// A block's range: min, max (`f32` each).
const RANGE_BYTES: usize = 4 + 4;

/// The rows that share one value range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RangeBlock {
    /// One range for the whole message — the training exchange's `C_bits`.
    Message,
    /// One range per row — a served reply, each of whose rows decodes as
    /// if it had been sent alone.
    Row,
}

impl RangeBlock {
    /// `(blocks, entries per block)` of a `rows × cols` message.
    fn layout(self, rows: usize, cols: usize) -> (usize, usize) {
        match self {
            RangeBlock::Message => (1, rows * cols),
            RangeBlock::Row => (rows, cols),
        }
    }
}

/// Bytes of one block of `entries` codes at `bits` bits: range, then codes.
fn block_stride(entries: usize, bits: u8) -> usize {
    RANGE_BYTES + bitpack::packed_len(entries, bits)
}

/// The range at the start of block `b`.
fn read_range(b: &[u8]) -> (f32, f32) {
    (f32::from_le_bytes([b[0], b[1], b[2], b[3]]), f32::from_le_bytes([b[4], b[5], b[6], b[7]]))
}

/// A quantized dense matrix plus everything needed to reconstruct it.
///
/// ```
/// use ec_compress::Quantized;
/// use ec_tensor::Matrix;
/// let h = Matrix::from_vec(1, 4, vec![0.7, 0.3, 0.0, 1.0]);
/// let q = Quantized::compress(&h, 2);
/// // 2 bits per coordinate instead of 32, reconstructed at the midpoints of
/// // four buckets over the message's own range [0, 1].
/// assert_eq!(q.decompress().as_slice(), &[0.625, 0.375, 0.125, 0.875]);
/// assert_eq!(q.wire_size(), 17 + 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Quantized {
    rows: usize,
    cols: usize,
    bits: u8,
    block: RangeBlock,
    /// Per block: its range, then its packed codes — the wire bytes after
    /// the header.
    body: Vec<u8>,
}

impl Default for Quantized {
    /// The empty message — no rows, so no ranges — which allocates nothing:
    /// a buffer for [`Quantized::assign`] to fill.
    fn default() -> Self {
        Self { rows: 0, cols: 0, bits: 1, block: RangeBlock::Row, body: Vec::new() }
    }
}

impl Quantized {
    /// Compresses `m` with `bits` bits per coordinate against one range,
    /// the matrix's own: a training message.
    ///
    /// This is the per-message hot path (every FP/BP exchange runs it): one
    /// lane-wise min/max scan, then one pass that quantizes a block of 64
    /// floats into a stack array of codes and packs it with the kernel for
    /// this width — each `f32` is read twice and each packed byte written
    /// once, with no heap allocation besides the packed buffer.
    ///
    /// # Panics
    /// Panics if `bits ∉ 1..=16`; never on the values (see the module
    /// header for non-finite input).
    pub fn compress(m: &Matrix, bits: u8) -> Self {
        Self::compress_at(Tier::best(), m, bits, RangeBlock::Message)
    }

    /// Compresses `m` with one range per `block`, the quantize-and-pack
    /// pass compiled for `tier` — the same message bit for bit at every
    /// tier, which is what the per-tier tests call this to check. (The
    /// range scan picks its own tier; `ec-tensor` tests that one.)
    pub fn compress_at(tier: Tier, m: &Matrix, bits: u8, block: RangeBlock) -> Self {
        let mut q = Self::default();
        q.assign_at(tier, m, bits, block);
        q
    }

    /// Overwrites `self` with [`Self::compress_at`] of `m` at the widest
    /// tier, reusing the packed buffer: the training exchange packs every
    /// message of an epoch into one `Quantized`, and the serving store
    /// re-encodes its rows into one at each checkpoint install.
    pub fn assign(&mut self, m: &Matrix, bits: u8, block: RangeBlock) {
        self.assign_at(Tier::best(), m, bits, block);
    }

    fn assign_at(&mut self, tier: Tier, m: &Matrix, bits: u8, block: RangeBlock) {
        assert!((1..=MAX_BITS).contains(&bits), "bits {bits} out of range 1..=16");
        let (blocks, entries) = block.layout(m.rows(), m.cols());
        let stride = block_stride(entries, bits);
        self.body.clear();
        self.body.resize(blocks * stride, 0);
        for (b, dst) in self.body.chunks_exact_mut(stride).enumerate() {
            let xs = &m.as_slice()[b * entries..][..entries];
            let (min, max) = ec_tensor::stats::min_max(xs);
            let (range, codes) = dst.split_at_mut(RANGE_BYTES);
            range[..4].copy_from_slice(&min.to_le_bytes());
            range[4..].copy_from_slice(&max.to_le_bytes());
            quantize_pack_into(tier, xs, bits, min, max, codes);
        }
        (self.rows, self.cols, self.bits, self.block) = (m.rows(), m.cols(), bits, block);
    }

    /// Reconstructs the matrix, each coordinate becoming the midpoint of its
    /// bucket.
    pub fn decompress(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        self.decompress_into(out.as_mut_slice());
        out
    }

    /// [`Self::decompress`] into a caller-provided buffer of
    /// `rows × cols` floats, row-major: one pass per block that unpacks its
    /// codes word by word and maps them to midpoints.
    ///
    /// # Panics
    /// Panics if `out` is not exactly `rows × cols` long.
    pub fn decompress_into(&self, out: &mut [f32]) {
        self.decompress_into_at(Tier::best(), out);
    }

    /// [`Self::decompress_into`] compiled for `tier` (see
    /// [`Self::compress_at`]).
    pub fn decompress_into_at(&self, tier: Tier, out: &mut [f32]) {
        assert_eq!(out.len(), self.rows * self.cols, "output buffer length mismatch");
        let entries = self.block.layout(self.rows, self.cols).1;
        for (b, src) in self.body.chunks_exact(self.stride()).enumerate() {
            decode_block(tier, src, self.bits, &mut out[b * entries..][..entries]);
        }
    }

    /// Reconstructs block `block` alone into `out`, which must be one block
    /// long — with a range per row, how a fetch decodes one row.
    pub fn decompress_block_into(&self, block: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.block.layout(self.rows, self.cols).1, "output length mismatch");
        let stride = self.stride();
        decode_block(Tier::best(), &self.body[block * stride..][..stride], self.bits, out);
    }

    fn stride(&self) -> usize {
        block_stride(self.block.layout(self.rows, self.cols).1, self.bits)
    }

    /// `(rows, cols)` of the original matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Bit width used for this message.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Value range the codes of block `block` are relative to.
    pub fn range(&self, block: usize) -> (f32, f32) {
        read_range(&self.body[block * self.stride()..])
    }

    /// Bytes this message occupies on the (simulated) wire: the header, then
    /// each block's range and packed codes.
    pub fn wire_size(&self) -> usize {
        HEADER_BYTES + self.body.len()
    }

    /// [`Self::wire_size`] of any message of `blocks` blocks of `entries`
    /// codes each at `bits` bits, without building one: `(1, rows · cols)`
    /// with one range per message, `(rows, cols)` with one per row.
    pub fn wire_size_for(blocks: usize, entries: usize, bits: u8) -> usize {
        HEADER_BYTES + blocks * block_stride(entries, bits)
    }

    /// Serializes to the wire format described by [`Self::wire_size`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        out.extend_from_slice(&(self.rows as u32).to_le_bytes());
        out.extend_from_slice(&(self.cols as u32).to_le_bytes());
        out.push(self.bits);
        out.extend_from_slice(&self.body);
        out
    }

    /// Deserializes a buffer produced by [`Self::to_bytes`] of a message
    /// with one range per `block`. The buffer must be exactly as long as
    /// its header says, checked before anything is allocated.
    pub fn from_bytes(buf: &[u8], block: RangeBlock) -> Result<Self, String> {
        let Some((header, body)) = buf.split_first_chunk::<HEADER_BYTES>() else {
            return Err(format!("buffer too short: {} bytes", buf.len()));
        };
        let le_u32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let rows = le_u32(&header[0..4]) as usize;
        let cols = le_u32(&header[4..8]) as usize;
        let bits = header[8];
        if !(1..=MAX_BITS).contains(&bits) {
            return Err(format!("invalid bit width {bits}"));
        }
        // Checked arithmetic: a hostile header can claim u32::MAX × u32::MAX
        // entries, whose bit count overflows usize (`layout` cannot overflow
        // once `rows × cols` fits).
        let expected = rows
            .checked_mul(cols)
            .map(|_| block.layout(rows, cols))
            .and_then(|(blocks, entries)| {
                let codes = entries.checked_mul(bits as usize)?.div_ceil(8);
                blocks.checked_mul(RANGE_BYTES + codes)
            })
            .ok_or_else(|| format!("claimed size {rows}x{cols} overflows"))?;
        if body.len() != expected {
            return Err(format!("payload length {} != expected {expected}", body.len()));
        }
        Ok(Self { rows, cols, bits, block, body: body.to_vec() })
    }

    /// The worst-case absolute reconstruction error for in-range values:
    /// half the bucket width, of the widest block.
    pub fn max_error(&self) -> f32 {
        let half_bucket = |(min, max): (f32, f32)| (max - min) / (1u32 << self.bits) as f32 / 2.0;
        self.body
            .chunks_exact(self.stride())
            .map(|b| half_bucket(read_range(b)))
            .fold(0.0, f32::max)
    }
}

/// Reconstructs one block — its range, then its codes — into `out`.
fn decode_block(tier: Tier, block: &[u8], bits: u8, out: &mut [f32]) {
    let (min, max) = read_range(block);
    let range = max - min;
    if range <= 0.0 {
        out.fill(min);
        return;
    }
    let width = range / (1u32 << bits) as f32;
    let wide = wide_prefix(out.len(), bits);
    let (src_wide, src_rest) = block[RANGE_BYTES..].split_at(bitpack::packed_len(wide, bits));
    let (out_wide, out_rest) = out.split_at_mut(wide);
    if wide > 0 {
        isa::dispatch_on(
            tier,
            #[inline(always)]
            || dequantize_blocks(src_wide, bits, min, width, out_wide),
        );
    }
    dequantize_blocks(src_rest, bits, min, width, out_rest);
}

/// Quantizes `xs` against `[min, max]` into `packed`, which holds
/// `packed_len(xs.len(), bits)` zero bytes (already the answer for a
/// degenerate range — every code 0): the one pass behind every encoding.
///
/// `(x − min)·scale` is clamped to `[0, top]` as a float (two selects that
/// lower to `maxps`/`minps` and send NaN to 0) and then truncated by
/// [`truncate_small`]. That equals truncating to `i64` first and clamping
/// the integer (the original formulation, kept as the test reference):
/// inside `[0, top]` both truncate the same value, below 0 both give 0
/// (truncation of `(−1, 0)` is 0 too), and above `top` — exactly
/// representable, at most 65 535 — both give `top`, because truncation is
/// monotone.
fn quantize_pack_into(tier: Tier, xs: &[f32], bits: u8, min: f32, max: f32, packed: &mut [u8]) {
    let range = max - min;
    if range <= 0.0 {
        return;
    }
    let buckets = 1u32 << bits;
    let scale = buckets as f32 / range;
    let top = (buckets - 1) as f32;
    let wide = wide_prefix(xs.len(), bits);
    let (xs_wide, xs_rest) = xs.split_at(wide);
    let (out_wide, out_rest) = packed.split_at_mut(bitpack::packed_len(wide, bits));
    if wide > 0 {
        isa::dispatch_on(
            tier,
            #[inline(always)]
            || quantize_blocks(xs_wide, bits, min, scale, top, out_wide),
        );
    }
    quantize_blocks(xs_rest, bits, min, scale, top, out_rest);
}

/// How many leading elements of a `len`-element message run at the
/// caller's instruction-set tier: the full blocks, at a width that has a
/// word kernel. Every other block — any block of another width, the ragged
/// last one — hands its codes to or takes them from the serial packer one
/// scalar at a time, and wide vector loads and stores on the other side of
/// that exchange stall on store forwarding (3-bit decode: 1.0 Gelem/s at
/// 128 bits, 0.7 at 256 and 512; a 47-float row: 190 ns against 250). Those
/// blocks run the baseline instantiation, as every block did before the
/// tiers — which also means a message shorter than one block never pays
/// for a dispatch.
fn wide_prefix(len: usize, bits: u8) -> usize {
    if bitpack::has_word_kernel(bits) {
        len / BLOCK * BLOCK
    } else {
        0
    }
}

/// The quantize pass: a block of floats becomes a stack array of codes
/// (see [`quantize_pack_into`] for the arithmetic) and is packed at once,
/// by the kernel for the width — selected here, once, not per block (inside
/// the loop the five-way choice cost every tier 5–20 %).
#[inline(always)]
fn quantize_blocks(xs: &[f32], bits: u8, min: f32, scale: f32, top: f32, packed: &mut [u8]) {
    bitpack::with_word_width!(bits, quantize_blocks_at(xs, bits, min, scale, top, packed));
}

#[inline(always)]
fn quantize_blocks_at<const BITS: u32>(
    xs: &[f32],
    bits: u8,
    min: f32,
    scale: f32,
    top: f32,
    packed: &mut [u8],
) {
    let mut codes = [0u32; BLOCK];
    for (block, dst) in xs.chunks(BLOCK).zip(packed.chunks_mut(bitpack::block_bytes(bits))) {
        let codes = &mut codes[..block.len()];
        for (code, &x) in codes.iter_mut().zip(block) {
            let t = (x - min) * scale;
            let t = if t > 0.0 { t } else { 0.0 };
            *code = truncate_small(if t < top { t } else { top });
        }
        bitpack::pack_block_at::<BITS>(codes, bits, dst);
    }
}

/// The decode pass: a block of codes is unpacked into a stack array and
/// mapped to bucket midpoints.
#[inline(always)]
fn dequantize_blocks(packed: &[u8], bits: u8, min: f32, width: f32, out: &mut [f32]) {
    bitpack::with_word_width!(bits, dequantize_blocks_at(packed, bits, min, width, out));
}

#[inline(always)]
fn dequantize_blocks_at<const BITS: u32>(
    packed: &[u8],
    bits: u8,
    min: f32,
    width: f32,
    out: &mut [f32],
) {
    let mut codes = [0u32; BLOCK];
    for (dst, src) in out.chunks_mut(BLOCK).zip(packed.chunks(bitpack::block_bytes(bits))) {
        let codes = &mut codes[..dst.len()];
        bitpack::unpack_block_at::<BITS>(src, bits, codes);
        for (x, &code) in dst.iter_mut().zip(codes.iter()) {
            // Codes are below 2^16, so the signed conversion (one
            // instruction, unlike the unsigned one) is exact.
            *x = min + (code as i32 as f32 + 0.5) * width;
        }
    }
}

/// `t as u32` for `0 ≤ t < 2^22`, in operations that vectorise on every
/// target: Rust's float→int `as` saturates, which baseline x86-64 can only
/// do one lane at a time behind two branches, and that conversion was the
/// quantizer's bottleneck.
///
/// Adding `2^23` leaves no fraction bits, so the sum is `2^23 + n` with
/// `n` the nearest integer to `t` (ties to even) sitting verbatim in the
/// mantissa field; subtracting `2^23` back is exact and tells whether the
/// rounding went up, in which case the truncation is `n − 1`.
#[inline(always)]
fn truncate_small(t: f32) -> u32 {
    const TWO_23: f32 = 8_388_608.0;
    let rounded = t + TWO_23;
    let nearest = rounded.to_bits() & 0x007F_FFFF;
    nearest - u32::from(rounded - TWO_23 > t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitpack::reference::{pack_reference, unpack_reference};
    use proptest::prelude::*;

    #[test]
    fn paper_fig3_example() {
        // Fig. 3: domain [0,1], B=2 → buckets with midpoints 0.125, 0.375,
        // 0.625, 0.875 (the paper rounds these to 0.2/0.5/0.8 for display).
        // The message spans the domain, so its own range is [0, 1].
        let h = Matrix::from_vec(1, 4, vec![0.7, 0.3, 0.0, 1.0]);
        let q = Quantized::compress(&h, 2);
        assert_eq!(q.range(0), (0.0, 1.0));
        let d = q.decompress();
        assert_eq!(d.as_slice(), &[0.625, 0.375, 0.125, 0.875]);
    }

    #[test]
    fn error_bounded_by_half_bucket() {
        let m = Matrix::from_fn(8, 8, |r, c| ((r * 8 + c) as f32) / 64.0);
        for bits in [1u8, 2, 4, 8] {
            let q = Quantized::compress(&m, bits);
            let d = q.decompress();
            let bound = q.max_error() + 1e-6;
            for (a, b) in m.as_slice().iter().zip(d.as_slice()) {
                assert!((a - b).abs() <= bound, "bits={bits}: |{a}-{b}| > {bound}");
            }
        }
    }

    #[test]
    fn constant_matrix_reconstructs_exactly() {
        let m = Matrix::filled(3, 3, 2.5);
        let q = Quantized::compress(&m, 4);
        assert!(q.decompress().approx_eq(&m, 1e-6));
    }

    #[test]
    fn wire_size_shrinks_with_fewer_bits() {
        let m = Matrix::zeros(64, 64);
        let s2 = Quantized::compress(&m, 2).wire_size();
        let s8 = Quantized::compress(&m, 8).wire_size();
        assert!(s2 < s8);
        // 2-bit: 64*64*2/8 = 1024 bytes payload + 17 header.
        assert_eq!(s2, 1024 + 17);
    }

    #[test]
    fn bytes_round_trip() {
        let m = Matrix::from_fn(5, 7, |r, c| (r as f32 - c as f32) * 0.3);
        let q = Quantized::compress(&m, 6);
        let back = Quantized::from_bytes(&q.to_bytes(), RangeBlock::Message).unwrap();
        assert_eq!(back, q);
        // The block kind is not on the wire: the same bytes are a different
        // (here, invalid) message read with one range per row.
        assert!(Quantized::from_bytes(&q.to_bytes(), RangeBlock::Row).is_err());
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let m = Matrix::zeros(4, 4);
        let mut buf = Quantized::compress(&m, 8).to_bytes();
        buf.pop();
        assert!(Quantized::from_bytes(&buf, RangeBlock::Message).is_err());
        assert!(Quantized::from_bytes(&buf[..5], RangeBlock::Message).is_err());
    }

    #[test]
    fn from_bytes_rejects_bad_bits() {
        let m = Matrix::zeros(2, 2);
        let mut buf = Quantized::compress(&m, 8).to_bytes();
        buf[8] = 33;
        assert!(Quantized::from_bytes(&buf, RangeBlock::Message).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn compress_rejects_zero_bits() {
        let _ = Quantized::compress(&Matrix::zeros(1, 1), 0);
    }

    /// The original quantizer: bucket every entry through an `i64`
    /// truncation and an integer clamp into a code vector, then pack it bit
    /// by bit. The semantic reference for the block kernels.
    fn compress_reference(xs: &[f32], bits: u8, min: f32, max: f32) -> Vec<u8> {
        let buckets = 1u32 << bits;
        let range = max - min;
        let codes: Vec<u32> = if range <= 0.0 {
            vec![0; xs.len()]
        } else {
            let scale = buckets as f32 / range;
            xs.iter()
                .map(|&x| {
                    let t = ((x - min) * scale) as i64;
                    t.clamp(0, (buckets - 1) as i64) as u32
                })
                .collect()
        };
        pack_reference(&codes, bits)
    }

    /// The original `decompress` of a one-range message: unpack bit by
    /// bit, map each code to its bucket midpoint through the unsigned
    /// conversion.
    fn decompress_reference(q: &Quantized) -> Vec<f32> {
        let count = q.rows * q.cols;
        let (min, max) = q.range(0);
        let range = max - min;
        if range <= 0.0 {
            return vec![min; count];
        }
        let width = range / (1u32 << q.bits) as f32;
        unpack_reference(&q.body[RANGE_BYTES..], q.bits, count)
            .into_iter()
            .map(|c| min + (c as f32 + 0.5) * width)
            .collect()
    }

    fn bit_patterns(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts packed bytes and reconstruction of `compress(m, bits)`
    /// against the two references, at every instruction-set tier the host
    /// supports; returns the message for further checks.
    fn assert_matches_references(m: &Matrix, bits: u8) -> Quantized {
        let q = Quantized::compress(m, bits);
        let (min, max) = q.range(0);
        let want_packed = compress_reference(m.as_slice(), bits, min, max);
        let want = bit_patterns(&decompress_reference(&q));
        for tier in Tier::supported() {
            let at_tier = Quantized::compress_at(tier, m, bits, RangeBlock::Message);
            assert_eq!(at_tier.body[RANGE_BYTES..], want_packed, "bits={bits} {tier}");
            assert_eq!(at_tier, q, "bits={bits} {tier}");
            let mut d = vec![f32::NAN; m.len()];
            q.decompress_into_at(tier, &mut d);
            assert_eq!(bit_patterns(&d), want, "bits={bits} {tier}");
        }
        assert_eq!(q.decompress().shape(), m.shape());
        assert_eq!(Quantized::from_bytes(&q.to_bytes(), RangeBlock::Message).unwrap(), q);
        q
    }

    #[test]
    fn block_kernels_match_the_references_at_every_width_and_tail() {
        // 0–63 trailing codes after 0, 1 and 2 full blocks, every width.
        for bits in 1u8..=MAX_BITS {
            for len in (0..=BLOCK).chain([2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 5]) {
                let m = Matrix::from_fn(1, len, |_, c| ((c * 37 + 11) as f32 * 0.37).sin() * 3.0);
                assert_matches_references(&m, bits);
            }
        }
    }

    #[test]
    fn truncate_small_is_the_float_to_int_cast() {
        // Every integer and both neighbours of every integer and half
        // integer up to the 16-bit ceiling the quantizer clamps to, plus
        // the two smallest-fraction cases — as one slice, so that each
        // tier's vectorised form of the function is what gets compared.
        let mut ts = vec![f32::MIN_POSITIVE, 0.99999994];
        for n in 0..=65_535u32 {
            for base in [n as f32, n as f32 + 0.5] {
                let ulp = f32::from_bits(base.to_bits() + 1) - base;
                ts.extend([base - ulp, base, base + ulp].into_iter().filter(|&t| t >= 0.0));
            }
        }
        let want: Vec<u32> = ts.iter().map(|&t| t as u32).collect();
        assert_eq!(want[..2], [0, 0]);
        for tier in Tier::supported() {
            let mut got = vec![0u32; ts.len()];
            isa::dispatch_on(
                tier,
                #[inline(always)]
                || {
                    for (code, &t) in got.iter_mut().zip(&ts) {
                        *code = truncate_small(t);
                    }
                },
            );
            let diff = got.iter().zip(&want).position(|(g, w)| g != w);
            assert_eq!(diff, None, "{tier}: t={:?}", diff.map(|i| ts[i]));
        }
    }

    /// One range per row is each row compressed alone: the same range and
    /// packed codes (the block's bytes are the one-row message's body), the
    /// same reconstruction and the same `max_error`, bit for bit, at every
    /// tier — over a constant row, rows with ±Inf and NaN, a row with no
    /// finite entry and widths that end mid-byte and mid-block. `assign`
    /// over a buffer that held other messages, of both kinds, writes the
    /// same message.
    #[test]
    fn a_range_per_row_is_each_row_compressed_alone() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let mut reused = Quantized::default();
        for cols in [1usize, 3, 16, 47, 64, 67, 131] {
            let mut m = Matrix::from_fn(6, cols, |r, c| {
                ((r * 31 + c * 7) as f32 * 0.37).sin() * (r + 1) as f32
            });
            m.row_mut(1).fill(2.5);
            m.set(2, 0, inf);
            m.set(2, cols / 2, -inf);
            m.set(3, cols - 1, nan);
            m.row_mut(4).fill(nan);
            for bits in 1u8..=MAX_BITS {
                let alone: Vec<Quantized> = m
                    .rows_iter()
                    .map(|r| Quantized::compress(&Matrix::from_vec(1, cols, r.to_vec()), bits))
                    .collect();
                let q = Quantized::compress_at(Tier::best(), &m, bits, RangeBlock::Row);
                let stride = q.stride();
                let max_alone = alone.iter().map(Quantized::max_error).fold(0.0, f32::max);
                assert_eq!(q.max_error().to_bits(), max_alone.to_bits(), "bits={bits}");
                assert_eq!(q.wire_size(), Quantized::wire_size_for(6, cols, bits));
                for (r, one) in alone.iter().enumerate() {
                    let tag = format!("cols={cols} bits={bits} row={r}");
                    assert_eq!(q.body[r * stride..][..stride], one.body[..], "{tag}");
                    assert_eq!(q.range(r), one.range(0), "{tag}");
                    let mut row = vec![f32::NAN; cols];
                    q.decompress_block_into(r, &mut row);
                    assert_eq!(bit_patterns(&row), bit_patterns(one.decompress().as_slice()));
                }
                for tier in Tier::supported() {
                    assert_eq!(Quantized::compress_at(tier, &m, bits, RangeBlock::Row), q);
                    let mut all = vec![f32::NAN; m.len()];
                    q.decompress_into_at(tier, &mut all);
                    for (r, one) in alone.iter().enumerate() {
                        let mut want = vec![f32::NAN; cols];
                        one.decompress_into_at(tier, &mut want);
                        let got = &all[r * cols..][..cols];
                        assert_eq!(bit_patterns(got), bit_patterns(&want), "bits={bits} {tier}");
                    }
                }
                reused.assign(&m, bits, RangeBlock::Row);
                assert_eq!(reused, q);
                reused.assign(&m, bits, RangeBlock::Message);
                assert_eq!(reused, Quantized::compress(&m, bits));
            }
        }
        // No rows: no ranges, only the header — what `default()` is.
        let empty = Quantized::compress_at(Tier::best(), &Matrix::zeros(0, 5), 8, RangeBlock::Row);
        assert_eq!((empty.wire_size(), empty.max_error()), (9, 0.0));
        assert_eq!(Quantized::from_bytes(&empty.to_bytes(), RangeBlock::Row), Ok(empty));
        let default = Quantized::default();
        assert_eq!(Quantized::from_bytes(&default.to_bytes(), RangeBlock::Row), Ok(default));
    }

    /// ROADMAP totality item (b): degenerate shapes and values through the
    /// codec, each with its documented result.
    #[test]
    fn degenerate_shapes_and_values_have_documented_results() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        for bits in [1u8, 2, 4, 8, 16] {
            // Empty, in both orientations.
            for m in [Matrix::zeros(0, 0), Matrix::zeros(0, 5), Matrix::zeros(3, 0)] {
                let q = assert_matches_references(&m, bits);
                assert_eq!(q.wire_size(), 17);
                assert_eq!(q.range(0), (0.0, 0.0));
            }
            // 1 × 1 and an all-equal column: min == max, reconstructed exactly.
            for m in [Matrix::filled(1, 1, -2.5), Matrix::filled(9, 1, 0.75)] {
                let q = assert_matches_references(&m, bits);
                assert_eq!(q.decompress(), m);
            }
            // Columns that are not a multiple of the 64-code block or the
            // 16-float min/max lane.
            assert_matches_references(&Matrix::from_fn(5, 13, |r, c| (r * 13 + c) as f32), bits);
            assert_matches_references(&Matrix::from_fn(3, 67, |r, c| (r + c) as f32 * -0.1), bits);

            // No finite entry: range [0, 0], reconstructs as zeros.
            for row in [vec![nan; 5], vec![inf, -inf, nan], vec![-inf; 70]] {
                let m = Matrix::from_vec(1, row.len(), row);
                let q = assert_matches_references(&m, bits);
                assert_eq!(q.range(0), (0.0, 0.0));
                assert!(q.decompress().as_slice().iter().all(|&x| x == 0.0));
            }
            // Non-finite entries among finite ones: the range is the finite
            // one, +Inf takes the top bucket, −Inf and NaN bucket 0, and the
            // finite neighbours decode exactly as they would without them.
            let mut row: Vec<f32> = (0..70).map(|i| i as f32 / 69.0).collect();
            let clean = Quantized::compress(&Matrix::from_vec(1, 70, row.clone()), bits);
            (row[3], row[40], row[68]) = (inf, nan, -inf);
            let q = assert_matches_references(&Matrix::from_vec(1, 70, row), bits);
            assert_eq!(q.range(0), (0.0, 1.0));
            let (d, want) = (q.decompress(), clean.decompress());
            let top = want.get(0, 69);
            let bottom = want.get(0, 0);
            for c in 0..70 {
                let expect = match c {
                    3 => top,
                    40 | 68 => bottom,
                    _ => want.get(0, c),
                };
                assert_eq!(d.get(0, c), expect, "bits={bits} col={c}");
            }
        }
    }

    proptest! {
        /// Packed bytes and reconstruction equal the references bit for
        /// bit on arbitrary finite data, including values that repeat, hit
        /// bucket edges and straddle the block boundary.
        #[test]
        fn block_kernels_match_the_references(
            bits in 1u8..=16,
            rows in 1usize..5,
            vals in proptest::collection::vec(-50.0f32..50.0, 1..150),
            coarse in any::<bool>(),
        ) {
            let cols = vals.len() / rows;
            let data: Vec<f32> = vals[..rows * cols]
                .iter()
                .map(|&v| if coarse { (v / 6.25).round() * 6.25 } else { v })
                .collect();
            assert_matches_references(&Matrix::from_vec(rows, cols, data), bits);
        }

        #[test]
        fn quantization_error_bound_holds(
            bits in 1u8..=8,
            vals in proptest::collection::vec(-100.0f32..100.0, 1..100),
        ) {
            let m = Matrix::from_vec(1, vals.len(), vals);
            let q = Quantized::compress(&m, bits);
            let d = q.decompress();
            let (min, max) = q.range(0);
            let bound = q.max_error() + (max - min).abs() * 1e-5 + 1e-6;
            for (a, b) in m.as_slice().iter().zip(d.as_slice()) {
                prop_assert!((a - b).abs() <= bound);
            }
        }

        #[test]
        fn serialization_round_trip(
            bits in 1u8..=16,
            rows in 1usize..8,
            cols in 1usize..8,
            seedv in any::<u64>(),
        ) {
            let m = Matrix::from_fn(rows, cols, |r, c| {
                ((seedv.wrapping_mul((r * 31 + c + 1) as u64) % 1000) as f32) / 500.0 - 1.0
            });
            let q = Quantized::compress(&m, bits);
            prop_assert_eq!(q.to_bytes().len(), q.wire_size());
            prop_assert_eq!(Quantized::from_bytes(&q.to_bytes(), RangeBlock::Message).unwrap(), q);
        }
    }
}

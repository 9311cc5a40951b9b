//! Offline stand-in for the `bytes` crate: the [`Buf`] / [`BufMut`] subset
//! this workspace's wire codec uses, implemented for `&[u8]` and `Vec<u8>`.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

/// Read cursor over a byte buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Skips `cnt` bytes.
    ///
    /// # Panics
    /// Panics when fewer than `cnt` bytes remain.
    fn advance(&mut self, cnt: usize);

    /// Copies out the next `dst.len()` bytes, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of buffer");
        *self = &self[cnt..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "read past end of buffer");
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }
}

/// Append-only write buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_bits().to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_f32_le(-1.5);
        buf.put_u64_le(u64::MAX - 1);
        buf.put_f64_le(3.25);
        buf.put_slice(&[1, 2, 3]);
        let mut s = buf.as_slice();
        assert_eq!(s.get_u8(), 7);
        assert_eq!(s.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(s.get_f32_le(), -1.5);
        assert_eq!(s.get_u64_le(), u64::MAX - 1);
        assert_eq!(s.get_f64_le(), 3.25);
        assert_eq!(s.remaining(), 3);
        s.advance(1);
        assert_eq!(s, &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn overread_panics() {
        let mut s: &[u8] = &[1, 2];
        let _ = s.get_u32_le();
    }
}

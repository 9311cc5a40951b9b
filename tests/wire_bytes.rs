//! The wire format, byte for byte.
//!
//! The paper's traffic claims are counted in the bytes `to_bytes()` writes
//! (PAPER.md §2: "we serialize real messages, count real bytes"), and those
//! encoders are hand-written: field order, tag values, length prefixes and
//! endianness exist nowhere but in the `put_*`/`extend_from_slice` calls.
//! This test holds one literal value of every wire type and variant to a
//! committed byte string, so swapping two writes, renumbering a tag or
//! widening a length prefix fails here — and checks on the same values that
//! `from_bytes` inverts the encoding and that `wire_size()`, which is what
//! the simulation charges, is the encoded length.
//!
//! A deliberate format change updates the strings below in the same commit;
//! the spaces in them separate fields and are ignored.

use ec_graph_repro::compress::Quantized;
use ec_graph_repro::ecgraph::wire::{BpMessage, FpMessage};
use ec_graph_repro::serve::wire::{ServeReply, ServeRequest};
use ec_graph_repro::tensor::Matrix;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

macro_rules! pin {
    ($ty:ty, $value:expr, $hex:literal) => {{
        let value: $ty = $value;
        let bytes = value.to_bytes();
        assert_eq!(hex(&bytes), $hex.replace(' ', ""), "encoding of {value:?}");
        assert_eq!(value.wire_size(), bytes.len(), "wire_size of {value:?}");
        assert_eq!(<$ty>::from_bytes(&bytes).as_ref(), Ok(&value), "round trip");
    }};
}

/// `1 × 4`, 2 bits over `[0, 1]`: codes 2, 1, 0, 3.
fn quantized() -> Quantized {
    let h = Matrix::from_vec(1, 4, vec![0.7, 0.3, 0.05, 0.95]);
    Quantized::compress_with_range(&h, 2, 0.0, 1.0)
}

/// `1 × 3`, 8 bits over `[-1, 1]`: codes 0, 128, 255.
fn quantized_row() -> Quantized {
    Quantized::compress_with_range(&Matrix::from_vec(1, 3, vec![-1.0, 0.0, 1.0]), 8, -1.0, 1.0)
}

/// `2 × 2` holding 1, −2, 0.5, 0.
fn matrix() -> Matrix {
    Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 0.0])
}

#[test]
fn every_wire_type_serializes_to_its_committed_bytes() {
    // rows, cols (u32 LE) · bits · min, max (f32 LE) · packed codes
    pin!(Quantized, quantized(), "01000000 04000000 02 00000000 0000803f c6");

    // tag 0 · H · M_cr, each rows, cols (u32 LE) · row-major f32 LE
    pin!(
        FpMessage,
        FpMessage::Exact { h: matrix(), m_cr: Matrix::zeros(2, 2) },
        "00 02000000 02000000 0000803f 000000c0 0000003f 00000000 \
            02000000 02000000 00000000 00000000 00000000 00000000"
    );
    // tag 1 · Quantized
    pin!(
        FpMessage,
        FpMessage::Compressed(quantized()),
        "01 01000000 04000000 02 00000000 0000803f c6"
    );
    // tag 2 · vertex count · 2-bit selector codes · [Quantized] · proportion
    pin!(
        FpMessage,
        FpMessage::Selected {
            selector: vec![0, 1, 2, 1, 0],
            compressed: Some(quantized()),
            proportion: 0.25
        },
        "02 05000000 6400 01000000 04000000 02 00000000 0000803f c6 0000803e"
    );
    pin!(
        FpMessage,
        FpMessage::Selected { selector: vec![1; 5], compressed: None, proportion: 1.0 },
        "02 05000000 5501 0000803f"
    );

    // tag 0 · G
    pin!(
        BpMessage,
        BpMessage::Exact(matrix()),
        "00 02000000 02000000 0000803f 000000c0 0000003f 00000000"
    );
    // tag 1 · Quantized
    pin!(
        BpMessage,
        BpMessage::Compressed(quantized()),
        "01 01000000 04000000 02 00000000 0000803f c6"
    );

    // tag 0x10 · version · id count · ids
    pin!(
        ServeRequest,
        ServeRequest { version: 3, ids: vec![1, 5, 258] },
        "10 03000000 03000000 01000000 05000000 02010000"
    );
    // tag 0x11 · version · rows
    pin!(
        ServeReply,
        ServeReply::Exact { version: 7, rows: matrix() },
        "11 07000000 02000000 02000000 0000803f 000000c0 0000003f 00000000"
    );
    // tag 0x12 · version · row count · (byte length · Quantized) per row
    pin!(
        ServeReply,
        ServeReply::RowQuantized { version: 7, rows: vec![quantized(), quantized_row()] },
        "12 07000000 02000000 \
            12000000 01000000 04000000 02 00000000 0000803f c6 \
            14000000 01000000 03000000 08 000080bf 0000803f 0080ff"
    );
    pin!(
        ServeReply,
        ServeReply::RowQuantized { version: 0, rows: Vec::new() },
        "12 00000000 00000000"
    );
}

//! The wire format, byte for byte.
//!
//! The paper's traffic claims are counted in the bytes `to_bytes()` writes
//! (PAPER.md §2: "we serialize real messages, count real bytes"), and those
//! encoders are hand-written: field order, tag values, length prefixes and
//! endianness exist nowhere but in the `put_*`/`extend_from_slice` calls.
//! This test holds one literal value of every wire type and variant to a
//! committed byte string, so swapping two writes, renumbering a tag or
//! widening a length prefix fails here — and checks on the same values that
//! `from_bytes` inverts the encoding and that `wire_size()` is the encoded
//! length, and that one byte more or one byte less is no message. A
//! second test holds every price the exchange charges by shape to the
//! length of the message it stands for, over a grid of shapes.
//!
//! A deliberate format change updates the strings below in the same commit;
//! the spaces in them separate fields and are ignored.

use ec_graph_repro::comm::codec;
use ec_graph_repro::compress::{Quantized, RangeBlock};
use ec_graph_repro::ecgraph::wire::{BpMessage, FpMessage};
use ec_graph_repro::serve::wire::{ServeReply, ServeRequest};
use ec_graph_repro::tensor::isa::Tier;
use ec_graph_repro::tensor::{init, Matrix};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

macro_rules! pin {
    ($ty:ty, $value:expr, $hex:literal) => {
        pin!($ty, <$ty>::from_bytes, $value, $hex)
    };
    ($ty:ty, $decode:expr, $value:expr, $hex:literal) => {{
        let value: $ty = $value;
        let bytes = value.to_bytes();
        assert_eq!(hex(&bytes), $hex.replace(' ', ""), "encoding of {value:?}");
        assert_eq!(value.wire_size(), bytes.len(), "wire_size of {value:?}");
        assert_eq!($decode(&bytes).as_ref(), Ok(&value), "round trip");
        let longer = [&bytes[..], &[0x07]].concat();
        assert!($decode(&longer).is_err(), "a trailing byte after {value:?}");
        let shorter = &bytes[..bytes.len() - 1];
        assert!($decode(shorter).is_err(), "{value:?} without its last byte");
    }};
}

/// `1 × 4`, 2 bits over its own range `[0, 1]`: codes 2, 1, 0, 3.
fn quantized() -> Quantized {
    Quantized::compress(&Matrix::from_vec(1, 4, vec![0.7, 0.3, 0.0, 1.0]), 2)
}

/// `rows`, 8 bits over each row's own range.
fn per_row(rows: Matrix) -> Quantized {
    Quantized::compress_at(Tier::best(), &rows, 8, RangeBlock::Row)
}

/// `2 × 2` holding 1, −2, 0.5, 0.
fn matrix() -> Matrix {
    Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 0.0])
}

#[test]
fn every_wire_type_serializes_to_its_committed_bytes() {
    // rows, cols (u32 LE) · bits · min, max (f32 LE) · packed codes
    let message = |b: &[u8]| Quantized::from_bytes(b, RangeBlock::Message);
    pin!(Quantized, message, quantized(), "01000000 04000000 02 00000000 0000803f c6");
    // rows, cols · bits · per row: min, max · packed codes
    let per_row_message = |b: &[u8]| Quantized::from_bytes(b, RangeBlock::Row);
    pin!(
        Quantized,
        per_row_message,
        per_row(Matrix::from_vec(2, 1, vec![0.5, -3.0])),
        "02000000 01000000 08 0000003f 0000003f 00 000040c0 000040c0 00"
    );

    // tag 0 · H · M_cr, each rows, cols (u32 LE) · row-major f32 LE; the
    // engine's boundary ships an empty M_cr, the requester derives it
    pin!(
        FpMessage,
        FpMessage::Exact { h: matrix(), m_cr: Matrix::zeros(0, 0) },
        "00 02000000 02000000 0000803f 000000c0 0000003f 00000000 \
            00000000 00000000"
    );
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
    // tag 0x12 · version · rows, cols (u32 LE) · bits · per row: min, max
    // (f32 LE) · packed codes. Row 0 spans [-1, 1]: codes 0, 128, 255; row 1
    // is constant: range [2, 2], codes 0.
    pin!(
        ServeReply,
        ServeReply::Quantized {
            version: 7,
            rows: per_row(Matrix::from_vec(2, 3, vec![-1.0, 0.0, 1.0, 2.0, 2.0, 2.0]))
        },
        "12 07000000 02000000 03000000 08 \
            000080bf 0000803f 0080ff \
            00000040 00000040 000000"
    );
    pin!(
        ServeReply,
        ServeReply::Quantized { version: 0, rows: per_row(Matrix::zeros(0, 3)) },
        "12 00000000 00000000 03000000 08"
    );
}

/// The exchange charges a vertex message by its shape, tag excluded: one
/// more byte than each charge is the length of the message it stands for,
/// serialized. Shapes from empty to wide, every bit width, Selected
/// messages at vertex and element granularity with a payload for none,
/// some and all of their choices.
#[test]
fn shape_prices_equal_the_serialized_messages() {
    let len = |bytes: Vec<u8>| bytes.len();
    for (rows, cols) in [(0usize, 16usize), (1, 1), (3, 16), (7, 47), (40, 64)] {
        let h = init::uniform(rows, cols, -2.0, 2.0, (rows + cols) as u64);
        let n = h.len();
        let boundary = FpMessage::Exact { h: h.clone(), m_cr: Matrix::zeros(0, 0) };
        assert_eq!(1 + FpMessage::boundary_size(n), len(boundary.to_bytes()), "{rows}x{cols}");
        let full = FpMessage::Exact { h: h.clone(), m_cr: h.clone() };
        assert_eq!(full.wire_size(), len(full.to_bytes()), "{rows}x{cols}");
        let exact = BpMessage::Exact(h.clone());
        assert_eq!(1 + codec::matrix_wire_size_for(n), len(exact.to_bytes()), "{rows}x{cols}");
        for bits in 1..=16u8 {
            let q = Quantized::compress(&h, bits);
            let charged = 1 + Quantized::wire_size_for(1, n, bits);
            assert_eq!(charged, len(FpMessage::Compressed(q.clone()).to_bytes()), "B={bits}");
            assert_eq!(charged, len(BpMessage::Compressed(q).to_bytes()), "B={bits}");
            // Vertex-wise: a choice per row, payload rows `cols` wide;
            // element-wise: a choice per entry, payload entries.
            for (choices, width) in [(rows, cols), (n, 1)] {
                for shipped in [0, choices / 2, choices] {
                    let selector = (0..choices)
                        .map(|c| if c < shipped { (c % 2 * 2) as u8 } else { 1 })
                        .collect();
                    let payload = &h.as_slice()[..shipped * width];
                    let msg = FpMessage::Selected {
                        selector,
                        compressed: (shipped > 0).then(|| {
                            let m = Matrix::from_vec(shipped, width, payload.to_vec());
                            Quantized::compress(&m, bits)
                        }),
                        proportion: (choices - shipped) as f32 / choices.max(1) as f32,
                    };
                    let priced = FpMessage::selected_size(
                        choices,
                        (shipped > 0).then_some((payload.len(), bits)),
                    );
                    let bytes = msg.to_bytes();
                    assert_eq!(1 + priced, bytes.len(), "{choices} choices, {shipped} shipped");
                    assert_eq!(msg.wire_size(), bytes.len());
                }
            }
        }
    }
    // A served reply: one range per row, zero rows to many, at the widths
    // the benchmark's stores ship (16, 41, 47, 64) and around them.
    for rows in [0usize, 1, 5, 40] {
        for cols in [1usize, 16, 41, 47, 64] {
            let h = init::uniform(rows, cols, -2.0, 2.0, (rows * cols) as u64);
            for bits in [1u8, 3, 8, 16] {
                let q = Quantized::compress_at(Tier::best(), &h, bits, RangeBlock::Row);
                let reply = ServeReply::Quantized { version: 2, rows: q };
                let charged = ServeReply::wire_size_for(rows, cols, Some(bits));
                assert_eq!(charged, len(reply.to_bytes()), "{rows}x{cols} B={bits}");
                assert_eq!(charged, reply.wire_size(), "{rows}x{cols} B={bits}");
            }
        }
    }
}

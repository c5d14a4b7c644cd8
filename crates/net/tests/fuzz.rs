//! Fuzz-style property tests of the wire and framing layers: malformed
//! input must produce errors, never panics or bogus successes.

use bytes::BytesMut;
use proptest::prelude::*;
use sdso_net::frame::{read_frame, write_batch, write_frame};
use sdso_net::wire::{WireReader, WireWriter};
use sdso_net::{MsgClass, Payload};

proptest! {
    #[test]
    fn frame_roundtrip_arbitrary_payloads(
        body in proptest::collection::vec(any::<u8>(), 0..4096),
        from in 0u16..64,
        data in any::<bool>(),
        wire_len in 0u32..1_000_000,
    ) {
        let class = if data { MsgClass::Data } else { MsgClass::Control };
        let payload = Payload::new(class, body.clone()).with_wire_len(wire_len);
        let mut buf = Vec::new();
        write_frame(&mut buf, from, &payload).unwrap();
        let got = read_frame(&mut std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(got.from, from);
        prop_assert_eq!(got.payload.class, class);
        prop_assert_eq!(got.payload.bytes.to_vec(), body);
        prop_assert_eq!(got.payload.wire_len(), payload.wire_len());
    }

    #[test]
    fn frame_reader_never_panics_on_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let _ = read_frame(&mut std::io::Cursor::new(garbage)); // Err is fine
    }

    #[test]
    fn truncated_valid_frames_error_cleanly(
        body in proptest::collection::vec(any::<u8>(), 1..512),
        cut in any::<proptest::sample::Index>(),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, &Payload::data(body)).unwrap();
        let cut_at = cut.index(buf.len().saturating_sub(1)).max(1);
        buf.truncate(cut_at);
        prop_assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn batched_frames_roundtrip_as_a_read_frame_loop(
        bodies in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..512), any::<bool>()), 0..8),
        from in 0u16..64,
    ) {
        let payloads: Vec<Payload> = bodies
            .iter()
            .map(|(body, data)| {
                let class = if *data { MsgClass::Data } else { MsgClass::Control };
                Payload::new(class, body.clone())
            })
            .collect();
        let mut wire = Vec::new();
        let mut scratch = BytesMut::new();
        write_batch(&mut wire, from, &payloads, &mut scratch).unwrap();
        let mut cursor = std::io::Cursor::new(&wire[..]);
        for p in &payloads {
            let got = read_frame(&mut cursor).unwrap();
            prop_assert_eq!(got.from, from);
            prop_assert_eq!(got.payload.class, p.class);
            prop_assert_eq!(&got.payload.bytes[..], &p.bytes[..]);
        }
        prop_assert!(read_frame(&mut cursor).is_err(), "batch fully consumed");
    }

    #[test]
    fn truncated_batches_error_and_never_panic(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..6),
        cut in any::<proptest::sample::Index>(),
    ) {
        let payloads: Vec<Payload> =
            bodies.into_iter().map(Payload::data).collect();
        let mut wire = Vec::new();
        let mut scratch = BytesMut::new();
        write_batch(&mut wire, 5, &payloads, &mut scratch).unwrap();
        wire.truncate(cut.index(wire.len()));
        // Reading the truncated batch yields some whole frames, then an
        // error — never a panic, never a phantom frame.
        let mut cursor = std::io::Cursor::new(&wire[..]);
        let mut whole = 0usize;
        while read_frame(&mut cursor).is_ok() {
            whole += 1;
        }
        prop_assert!(whole <= payloads.len());
    }

    #[test]
    fn corrupted_batch_bytes_never_panic_the_reader(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48), 1..5),
        corrupt_at in any::<proptest::sample::Index>(),
        corrupt_to in any::<u8>(),
    ) {
        let payloads: Vec<Payload> =
            bodies.into_iter().map(Payload::data).collect();
        let mut wire = Vec::new();
        let mut scratch = BytesMut::new();
        write_batch(&mut wire, 5, &payloads, &mut scratch).unwrap();
        let at = corrupt_at.index(wire.len());
        wire[at] = corrupt_to;
        let mut cursor = std::io::Cursor::new(&wire[..]);
        // Smashed length prefixes / class bytes may poison the rest of the
        // stream; each read must still end in Ok or Err, never a panic.
        for _ in 0..payloads.len() {
            if read_frame(&mut cursor).is_err() {
                break;
            }
        }
    }

    #[test]
    fn wire_reader_survives_any_operation_sequence(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        ops in proptest::collection::vec(0u8..7, 0..16),
    ) {
        let mut r = WireReader::new(&bytes);
        for op in ops {
            // Any mix of reads on arbitrary bytes: Err allowed, panic not.
            let _ = match op {
                0 => r.get_u8().map(|_| ()),
                1 => r.get_u16().map(|_| ()),
                2 => r.get_u32().map(|_| ()),
                3 => r.get_u64().map(|_| ()),
                4 => r.get_bool().map(|_| ()),
                5 => r.get_bytes().map(|_| ()),
                _ => r.get_seq(|r| r.get_u8()).map(|_| ()),
            };
        }
    }

    #[test]
    fn accepted_varints_reencode_byte_identically(
        picks in proptest::collection::vec((any::<u8>(), 0u8..4), 0..12)
    ) {
        // Half the bytes are a bare continuation (0x80) or zero, so
        // overlong forms like `80 00` come up often.
        let bytes: Vec<u8> = picks
            .iter()
            .map(|&(b, pick)| match pick {
                0 => 0x80,
                1 => 0x00,
                _ => b,
            })
            .collect();
        let mut r = WireReader::new(&bytes);
        if let Ok(v) = r.get_varint() {
            let consumed = bytes.len() - r.remaining();
            let mut w = WireWriter::new();
            w.put_varint(v);
            prop_assert_eq!(&w.into_bytes()[..], &bytes[..consumed]);
        }
    }

    #[test]
    fn writer_reader_roundtrip_mixed_sequences(
        values in proptest::collection::vec((any::<u32>(), proptest::collection::vec(any::<u8>(), 0..32)), 0..16)
    ) {
        let mut w = WireWriter::new();
        for (num, bytes) in &values {
            w.put_u32(*num);
            w.put_bytes(bytes);
        }
        let encoded = w.into_bytes();
        let mut r = WireReader::new(&encoded);
        for (num, bytes) in &values {
            prop_assert_eq!(r.get_u32().unwrap(), *num);
            prop_assert_eq!(r.get_bytes().unwrap(), &bytes[..]);
        }
        r.finish().unwrap();
    }
}

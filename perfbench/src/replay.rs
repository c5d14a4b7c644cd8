//! Replay micro-costs: the frame codec and the `DsoMessage` wire codec
//! timed over the payloads a traced game actually sent, so the mix of
//! message kinds and sizes is the workload's own.

use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use sdso_core::wire::DsoMessage;
use sdso_net::frame::{append_frame, decode_frame_at};
use sdso_net::{wire, Payload};

use crate::probe::Captured;
use crate::stats::median;

/// Replay passes over the sample; the reported cost is their median.
const PASSES: usize = 15;

/// Per-message replay costs in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCosts {
    /// Messages in the sample.
    pub msgs: usize,
    /// `append_frame` per message.
    pub frame_encode_ns: f64,
    /// `decode_frame_at` per message.
    pub frame_decode_ns: f64,
    /// `DsoMessage` encode per message.
    pub wire_encode_ns: f64,
    /// `DsoMessage` decode per message.
    pub wire_decode_ns: f64,
}

/// Times both codecs over `sample`.
///
/// # Errors
///
/// Fails when a frame does not round-trip, or when a payload does not
/// decode as a `DsoMessage` that re-encodes to the same bytes: the replay
/// is also an output check of both codecs on real traffic.
pub fn replay(sample: &[Captured]) -> Result<ReplayCosts, String> {
    if sample.is_empty() {
        return Err("no payloads captured".into());
    }
    let payloads: Vec<(u16, Payload)> = sample.iter().map(|c| (c.from, c.payload())).collect();
    let n = payloads.len() as f64;

    let mut frame_enc = Vec::with_capacity(PASSES);
    let mut frame_dec = Vec::with_capacity(PASSES);
    let mut buf = BytesMut::new();
    for _ in 0..PASSES {
        buf.clear();
        let t = Instant::now();
        for (from, payload) in &payloads {
            append_frame(&mut buf, *from, payload);
        }
        frame_enc.push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        let mut pos = 0;
        let mut decoded = 0usize;
        while let Some(msg) = decode_frame_at(&buf, &mut pos).map_err(|e| e.to_string())? {
            black_box(msg);
            decoded += 1;
        }
        frame_dec.push(t.elapsed().as_nanos() as f64 / n);
        if pos != buf.len() || decoded != payloads.len() {
            return Err("frame replay did not decode every frame".into());
        }
    }
    let mut pos = 0;
    for (from, payload) in &payloads {
        let msg = decode_frame_at(&buf, &mut pos).map_err(|e| e.to_string())?;
        let ok = msg.is_some_and(|m| {
            m.from == *from && m.payload.bytes == payload.bytes && m.payload.class == payload.class
        });
        if !ok {
            return Err("frame replay changed a message".into());
        }
    }

    let mut messages = Vec::with_capacity(payloads.len());
    for (_, payload) in &payloads {
        let msg = wire::decode::<DsoMessage>(&payload.bytes)
            .map_err(|e| format!("a captured payload is not a DsoMessage: {e}"))?;
        if wire::encode(&msg) != payload.bytes {
            return Err("a DsoMessage does not re-encode to its captured bytes".into());
        }
        messages.push(msg);
    }
    let mut wire_enc = Vec::with_capacity(PASSES);
    let mut wire_dec = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t = Instant::now();
        for msg in &messages {
            black_box(wire::encode(black_box(msg)));
        }
        wire_enc.push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        for (_, payload) in &payloads {
            let _ = black_box(wire::decode::<DsoMessage>(black_box(&payload.bytes)));
        }
        wire_dec.push(t.elapsed().as_nanos() as f64 / n);
    }
    Ok(ReplayCosts {
        msgs: payloads.len(),
        frame_encode_ns: median(&frame_enc),
        frame_decode_ns: median(&frame_dec),
        wire_encode_ns: median(&wire_enc),
        wire_decode_ns: median(&wire_dec),
    })
}

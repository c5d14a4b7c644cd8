//! Wire codec v2: varint/run-length diff encoding with optional XOR-delta.
//!
//! The v1 wire format ships every diff run as a fixed 8-byte header plus
//! literal bytes. For game-style workloads that rewrite whole blocks where
//! most bytes did not change, the payload is dominated by headers and
//! unchanged bytes. Codec v2 (negotiated per peer via
//! [`crate::wire::DsoMessage::CodecOffer`]) attacks both:
//!
//! * **Varint headers** — counts, offsets and lengths are LEB128 varints;
//!   run offsets after the first are encoded as the gap from the previous
//!   run's end, and the object id and version time of every update after
//!   the first are zigzag deltas from the previous update's.
//! * **Implied fields** — a flags byte per update says what the receiver
//!   can work out itself: `OWN` (the writer is the link's sender, so no
//!   writer is sent) and `WHOLE` (one run at offset 0 covering the
//!   object's registered length — its initial body's, identical on both
//!   ends by the `share` contract — so no run list is sent).
//! * **Zero-RLE bodies** — run bodies are a token stream of
//!   `(zeros, literals)` pairs, so zero bytes collapse to a couple of bytes
//!   per stretch; a token whose zeros reach the end of the run omits its
//!   (empty) literal count.
//! * **XOR-delta** — when enabled, each run body is XORed against the
//!   link's *shadow* of the peer's last-delivered state before run-length
//!   encoding, turning "rewrote the block but almost nothing changed" into
//!   long zero stretches. The encoder picks XOR or absolute per update,
//!   whichever is smaller, and records the choice in the flags byte.
//!
//! # Blob layout
//!
//! ```text
//! blob   := count:varint update*
//! update := flags:u8 object time [writer:varint] runs
//! object := varint (first update) | zigzag varint delta
//! time   := varint (first update) | zigzag varint delta
//! runs   := body                                  (WHOLE)
//!         | nruns:varint (gap:varint len:varint body)*
//! body   := (zeros:varint [nlit:varint literal*])*   nlit omitted iff
//!                                                    the zeros end the run
//! ```
//!
//! Every field has exactly one encoding: the decoder rejects an explicit
//! writer equal to the sender and an explicit run list that is a single
//! whole-object run, as well as deltas that leave the field's range.
//!
//! # Shadow lockstep
//!
//! Both ends of a link hold a [`ShadowState`]: per-object buffers seeded
//! lazily from the object's *initial* body (the `share` contract guarantees
//! identical initial contents cluster-wide) and advanced by exactly the
//! runs carried in [`Data2`](crate::wire::DsoMessage::Data2) messages on
//! that link, in delivery order. v1 fallback traffic advances neither side.
//! The shadows therefore stay a pure function of the Data2 sequence, which
//! the `basis` counter stamps on every message: a mismatch on decode means
//! the shadows are out of lockstep and the blob is rejected loudly instead
//! of silently applying garbage. This requires in-order exactly-once
//! delivery, which the runtime's admission layer provides (ARQ reliability
//! or a lossless FIFO transport).
//!
//! Decoding is bit-exact: `decode_updates(encode_updates(u)) == u` for
//! every update list, XORed or not, so protocol behaviour above the codec
//! is unchanged byte-for-byte.

use std::collections::HashMap;

use sdso_net::wire::{WireReader, WireWriter};
use sdso_net::{NetError, NodeId};

use crate::clock::LogicalTime;
use crate::diff::Diff;
use crate::object::{ObjectId, Version};
use crate::wire::WireUpdate;

/// The original fixed-header wire format.
pub const CODEC_V1: u8 = 1;
/// Varint/run-length (+ optional XOR-delta) encoding — this module —
/// carried in a fused `Data2` frame (the whole `(data, SYNC)` pair, under
/// a varint header). The number a [`crate::wire::DsoMessage::CodecOffer`]
/// carries for it is 4: numbers 2 and 3 named earlier layouts (2: a
/// fixed-width header and a separate SYNC; 3: every update spelling out
/// its writer and run list), and a peer that still offers either is sent
/// v1.
pub const CODEC_V2: u8 = 4;

/// Per-update flags byte, bit 0: run bodies are XORed against the shadow.
const FLAG_XOR: u8 = 0b0000_0001;
/// Bit 1: the diff is one run at offset 0 with the object's registered
/// length; the run list is implied and only the body follows.
const FLAG_WHOLE: u8 = 0b0000_0010;
/// Bit 2: the writer is the link's sender; the writer varint is implied.
const FLAG_OWN: u8 = 0b0000_0100;

/// Decoder inflation budget: a single run may not claim more than this many
/// bytes, bounding what a hostile tiny blob can make the decoder allocate
/// (zero-RLE legitimately inflates, so the blob length bounds nothing).
/// The encoder falls back to the v1 format for anything larger.
const MAX_RUN_LEN: u64 = 1 << 26;

/// A zero stretch inside a literal run must be at least this long before
/// splitting it out as its own token pays for the two header varints.
const ZERO_BREAK: usize = 3;

/// One object's state on one direction of a link: its registered length
/// (the initial body's, fixed at `share`) and the XOR shadow.
#[derive(Debug, PartialEq)]
struct Shadow {
    size: usize,
    bytes: Vec<u8>,
}

/// One direction of a link's codec v2 state: the per-object shadows plus
/// the count of `Data2` messages encoded (sender side) or decoded
/// (receiver side) since the last reset.
#[derive(Debug, Default)]
pub(crate) struct ShadowState {
    shadows: HashMap<ObjectId, Shadow>,
    basis: u64,
}

impl ShadowState {
    /// `Data2` messages processed since the last reset.
    pub fn basis(&self) -> u64 {
        self.basis
    }

    /// Forgets everything — called when a peer departs or reconnects, so a
    /// restarted peer (whose shadows died with it) re-negotiates from a
    /// clean slate instead of decoding against state it no longer has.
    pub fn reset(&mut self) {
        self.shadows.clear();
        self.basis = 0;
    }

    /// The shadow for `object`, seeding it from `seed` on first touch.
    fn shadow(
        &mut self,
        object: ObjectId,
        seed: &mut dyn FnMut(ObjectId) -> Option<Vec<u8>>,
    ) -> Option<&mut Shadow> {
        match self.shadows.entry(object) {
            std::collections::hash_map::Entry::Occupied(e) => Some(e.into_mut()),
            std::collections::hash_map::Entry::Vacant(e) => {
                seed(object).map(|bytes| e.insert(Shadow { size: bytes.len(), bytes }))
            }
        }
    }

    /// Advances the shadows past one delivered batch: every run's plain
    /// bytes overwrite the shadow, growing it with zeros when a run reaches
    /// past its end (deterministic on both sides).
    fn apply_batch(&mut self, updates: &[WireUpdate]) {
        for u in updates {
            let Some(shadow) = self.shadows.get_mut(&u.object) else { continue };
            for (offset, bytes) in u.diff.runs() {
                let end = offset as usize + bytes.len();
                if shadow.bytes.len() < end {
                    shadow.bytes.resize(end, 0);
                }
                shadow.bytes[offset as usize..end].copy_from_slice(bytes);
            }
        }
    }
}

/// Whether `diff` is exactly one run at offset 0 of `size` bytes.
fn is_whole(diff: &Diff, size: usize) -> bool {
    let mut runs = diff.runs();
    matches!((runs.next(), runs.next()), (Some((0, bytes)), None) if bytes.len() == size)
}

/// Maps a signed delta onto an unsigned varint, small magnitudes first.
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// `next - prev` as a zigzag varint value, when it fits an `i64`.
fn delta(prev: u64, next: u64) -> Option<u64> {
    i64::try_from(i128::from(next) - i128::from(prev)).ok().map(zigzag)
}

/// Reverses [`delta`]: `prev` plus the zigzag delta `z`, or `None` when
/// the sum leaves the `u64` range.
fn undelta(prev: u64, z: u64) -> Option<u64> {
    let d = ((z >> 1) as i64) ^ -((z & 1) as i64);
    u64::try_from(i128::from(prev) + i128::from(d)).ok()
}

/// Encodes an update batch from `sender` into a codec-v2 blob, choosing
/// XOR or absolute bodies per update by encoded size.
///
/// Returns `(basis, blob)` — the basis to stamp on the `Data2` message —
/// and advances `state` (shadows and basis) past the batch. Returns `None`
/// when the batch cannot be represented (a run above the decoder budget,
/// XOR requested for an object `seed` cannot produce, or two consecutive
/// version times further apart than an `i64`): the caller must fall back
/// to a v1 `Data` message, and the basis and every shadow's contents are
/// left unadvanced so both ends skip the batch symmetrically.
pub(crate) fn encode_updates(
    updates: &[WireUpdate],
    sender: NodeId,
    xor: bool,
    state: &mut ShadowState,
    seed: &mut dyn FnMut(ObjectId) -> Option<Vec<u8>>,
) -> Option<(u64, Vec<u8>)> {
    for u in updates {
        for (_, bytes) in u.diff.runs() {
            if bytes.len() as u64 > MAX_RUN_LEN {
                return None;
            }
        }
        // Seeded either way: `WHOLE` needs the registered length.
        if state.shadow(u.object, seed).is_none() && xor {
            return None;
        }
    }
    let ticks = |u: &WireUpdate| u.version.time.as_ticks();
    if updates.windows(2).any(|p| delta(ticks(&p[0]), ticks(&p[1])).is_none()) {
        return None;
    }

    let mut w = WireWriter::new();
    w.put_varint(updates.len() as u64);
    let mut scratch = Vec::new();
    let mut prev: Option<&WireUpdate> = None;
    for u in updates {
        let shadow = state.shadows.get(&u.object);
        // XOR only when it beats absolute encoding for this update — an
        // update that genuinely changed most bytes (or a shadow made stale
        // by v1 fallback batches) costs the same or more XORed. The
        // preflight loop seeded every shadow we need, but the encoder
        // stays total anyway: a missing shadow takes the absolute arm.
        let xor_shadow = shadow.filter(|_| xor).filter(|shadow| {
            let mut abs_cost = 0usize;
            let mut xor_cost = 0usize;
            for (offset, bytes) in u.diff.runs() {
                abs_cost += rle_cost(bytes);
                xor_into(&mut scratch, bytes, &shadow.bytes, offset);
                xor_cost += rle_cost(&scratch);
            }
            xor_cost < abs_cost
        });
        let whole = shadow.is_some_and(|shadow| is_whole(&u.diff, shadow.size));
        let own = u.version.writer == sender;
        let mut flags = 0;
        if xor_shadow.is_some() {
            flags |= FLAG_XOR;
        }
        if whole {
            flags |= FLAG_WHOLE;
        }
        if own {
            flags |= FLAG_OWN;
        }
        w.put_u8(flags);
        match prev {
            None => {
                w.put_varint(u64::from(u.object.0));
                w.put_varint(ticks(u));
            }
            Some(p) => {
                w.put_varint(zigzag(i64::from(u.object.0) - i64::from(p.object.0)));
                // The preflight checked that every consecutive pair fits.
                w.put_varint(delta(ticks(p), ticks(u)).unwrap_or_default());
            }
        }
        prev = Some(u);
        if !own {
            w.put_varint(u64::from(u.version.writer));
        }
        if !whole {
            w.put_varint(u.diff.run_count() as u64);
        }
        let mut prev_end = 0u64;
        for (offset, bytes) in u.diff.runs() {
            if !whole {
                w.put_varint(offset as u64 - prev_end);
                w.put_varint(bytes.len() as u64);
            }
            prev_end = offset as u64 + bytes.len() as u64;
            match xor_shadow {
                Some(shadow) => {
                    xor_into(&mut scratch, bytes, &shadow.bytes, offset);
                    rle_encode(&mut w, &scratch);
                }
                None => rle_encode(&mut w, bytes),
            }
        }
    }

    if xor {
        state.apply_batch(updates);
    }
    let basis = state.basis;
    state.basis += 1;
    Some((basis, w.into_bytes().to_vec()))
}

/// Decodes a codec-v2 blob `sender` encoded back into the exact update
/// batch, and advances `state` past it.
///
/// # Errors
///
/// Returns [`NetError::Codec`] on a basis mismatch (shadows out of
/// lockstep), an XORed or `WHOLE` update whose object `seed` cannot
/// produce, a non-canonical encoding, or any malformed/hostile input.
/// `state` is only advanced on success.
pub(crate) fn decode_updates(
    blob: &[u8],
    basis: u64,
    sender: NodeId,
    state: &mut ShadowState,
    seed: &mut dyn FnMut(ObjectId) -> Option<Vec<u8>>,
) -> Result<Vec<WireUpdate>, NetError> {
    if basis != state.basis {
        return Err(NetError::Codec(format!(
            "codec basis mismatch: message {basis}, link {} — XOR shadows out of lockstep",
            state.basis
        )));
    }
    let mut r = WireReader::new(blob);
    let count = r.get_varint()?;
    if count > r.remaining() as u64 {
        return Err(NetError::Codec(format!(
            "update count {count} exceeds remaining {} bytes",
            r.remaining()
        )));
    }
    let mut updates: Vec<WireUpdate> = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let flags = r.get_u8()?;
        if flags & !(FLAG_XOR | FLAG_WHOLE | FLAG_OWN) != 0 {
            return Err(NetError::Codec(format!("unknown codec flags {flags:#04x}")));
        }
        let (object, time) = match updates.last() {
            None => (r.get_varint()?, r.get_varint()?),
            Some(p) => {
                let object = undelta(u64::from(p.object.0), r.get_varint()?);
                let time = undelta(p.version.time.as_ticks(), r.get_varint()?);
                match (object, time) {
                    (Some(o), Some(t)) => (o, t),
                    _ => return Err(NetError::Codec("object id or time delta overflows".into())),
                }
            }
        };
        let object = u32::try_from(object)
            .map(ObjectId)
            .map_err(|_| NetError::Codec(format!("object id {object} exceeds u32")))?;
        let time = LogicalTime::from_ticks(time);
        let writer = if flags & FLAG_OWN != 0 {
            sender
        } else {
            let writer = r.get_varint()?;
            match u16::try_from(writer) {
                Ok(w) if w == sender => {
                    return Err(NetError::Codec(format!(
                        "explicit writer {w} is the sender: non-canonical (OWN)"
                    )));
                }
                Ok(w) => w,
                Err(_) => return Err(NetError::Codec(format!("writer id {writer} exceeds u16"))),
            }
        };
        // Seed unconditionally (not just on XOR) so both ends hold shadows
        // for the same object set once traffic flows, keeping later XOR
        // decisions honest after a v1 fallback.
        let size = state.shadow(object, seed).map(|s| s.size);
        let whole_len = if flags & FLAG_WHOLE != 0 {
            Some(size.ok_or_else(|| {
                NetError::Codec(format!("WHOLE update for {object:?} with no registered length"))
            })?)
        } else {
            None
        };
        let nruns = match whole_len {
            Some(_) => 1,
            None => {
                let nruns = r.get_varint()?;
                if nruns > r.remaining() as u64 {
                    return Err(NetError::Codec(format!(
                        "run count {nruns} exceeds remaining {} bytes",
                        r.remaining()
                    )));
                }
                nruns
            }
        };
        let mut runs = Vec::with_capacity(nruns as usize);
        let mut prev_end = 0u64;
        for _ in 0..nruns {
            let (offset, len) = match whole_len {
                Some(len) => (Some(0), len as u64),
                None => (prev_end.checked_add(r.get_varint()?), r.get_varint()?),
            };
            if len > MAX_RUN_LEN {
                return Err(NetError::Codec(format!(
                    "run length {len} exceeds decoder budget {MAX_RUN_LEN}"
                )));
            }
            let end = offset.and_then(|o| o.checked_add(len));
            let (offset, end) = match (offset, end) {
                (Some(o), Some(e)) if e <= u32::MAX as u64 => (o, e),
                _ => {
                    return Err(NetError::Codec("diff run exceeds u32 address space".into()));
                }
            };
            prev_end = end;
            let mut body = rle_decode(&mut r, len as usize)?;
            if flags & FLAG_XOR != 0 {
                let shadow = state.shadow(object, seed).ok_or_else(|| {
                    NetError::Codec(format!("XORed update for {object:?} with no seedable shadow"))
                })?;
                // XOR reference is the *pre-batch* shadow: the sender
                // decided and encoded the whole batch before advancing.
                unxor_in_place(&mut body, &shadow.bytes, offset as u32);
            }
            runs.push((offset as u32, body));
        }
        let diff = Diff::from_sorted_runs(runs)?;
        if whole_len.is_none() && size.is_some_and(|size| is_whole(&diff, size)) {
            return Err(NetError::Codec(format!(
                "explicit whole-object run list for {object:?}: non-canonical (WHOLE)"
            )));
        }
        updates.push(WireUpdate { object, diff, version: Version::new(time, writer) });
    }
    r.finish()?;
    state.apply_batch(&updates);
    state.basis += 1;
    Ok(updates)
}

/// XORs `bytes` (a run at absolute `offset`) against the shadow into
/// `scratch`, treating bytes past the shadow's end as zero.
fn xor_into(scratch: &mut Vec<u8>, bytes: &[u8], shadow: &[u8], offset: u32) {
    scratch.clear();
    scratch.extend_from_slice(bytes);
    let start = offset as usize;
    for (i, b) in scratch.iter_mut().enumerate() {
        if let Some(&s) = shadow.get(start + i) {
            *b ^= s;
        }
    }
}

/// Reverses [`xor_into`] in place on a decoded body.
fn unxor_in_place(body: &mut [u8], shadow: &[u8], offset: u32) {
    let start = offset as usize;
    for (i, b) in body.iter_mut().enumerate() {
        if let Some(&s) = shadow.get(start + i) {
            *b ^= s;
        }
    }
}

/// Walks `bytes` as alternating (zeros, literal) segments — the token
/// structure both [`rle_cost`] and [`rle_encode`] emit. A zero stretch
/// inside a literal shorter than [`ZERO_BREAK`] is cheaper shipped as
/// literal bytes than split into its own token.
fn for_each_token(bytes: &[u8], mut f: impl FnMut(usize, &[u8])) {
    let mut i = 0usize;
    while i < bytes.len() {
        let z0 = i;
        while i < bytes.len() && bytes[i] == 0 {
            i += 1;
        }
        let nzeros = i - z0;
        let l0 = i;
        loop {
            while i < bytes.len() && bytes[i] != 0 {
                i += 1;
            }
            if i == bytes.len() {
                break;
            }
            let z = i;
            while i < bytes.len() && bytes[i] == 0 {
                i += 1;
            }
            if i - z >= ZERO_BREAK || i == bytes.len() {
                i = z;
                break;
            }
        }
        f(nzeros, &bytes[l0..i]);
    }
}

/// Encoded size in bytes of `bytes` as a zero-RLE token stream.
fn rle_cost(bytes: &[u8]) -> usize {
    let mut cost = 0usize;
    for_each_token(bytes, |nzeros, lit| {
        cost += varint_len(nzeros as u64);
        if !lit.is_empty() {
            cost += varint_len(lit.len() as u64) + lit.len();
        }
    });
    cost
}

/// Encoded size of `v` as an LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Emits `bytes` as a zero-RLE token stream: repeated
/// `(varint zeros, varint literals, literal bytes)` until the run length
/// (carried in the run header) is covered. A literal is only ever empty
/// when its token's zeros reach the end of the run, and then its count is
/// left out: the run length implies it.
///
/// sdso-check: hot-path
fn rle_encode(w: &mut WireWriter, bytes: &[u8]) {
    for_each_token(bytes, |nzeros, lit| {
        w.put_varint(nzeros as u64);
        if !lit.is_empty() {
            w.put_varint(lit.len() as u64);
            w.put_raw(lit);
        }
    });
}

/// Reads a zero-RLE token stream producing exactly `len` bytes.
fn rle_decode(r: &mut WireReader<'_>, len: usize) -> Result<Vec<u8>, NetError> {
    let mut out = Vec::with_capacity(len.min(r.remaining().max(64)));
    while out.len() < len {
        let nzeros = r.get_varint()?;
        let zeros_end = (out.len() as u64).saturating_add(nzeros);
        if zeros_end > len as u64 {
            return Err(NetError::Codec(format!(
                "zero-RLE zeros overrun the run header's {len} bytes"
            )));
        }
        out.resize(zeros_end as usize, 0);
        if out.len() == len {
            // The zeros end the run: the empty literal's count is implied.
            break;
        }
        let nlit = r.get_varint()?;
        if nzeros == 0 && nlit == 0 {
            return Err(NetError::Codec("empty zero-RLE token".into()));
        }
        let total = (out.len() as u64)
            .checked_add(nlit)
            .ok_or_else(|| NetError::Codec("zero-RLE token overflows".into()))?;
        if total > len as u64 {
            return Err(NetError::Codec(format!(
                "zero-RLE tokens produce {total} bytes, run header said {len}"
            )));
        }
        out.extend_from_slice(r.get_raw(nlit as usize)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sender of every test batch unless a test says otherwise.
    const ME: NodeId = 1;

    fn upd(object: u32, diff: Diff, ticks: u64, writer: u16) -> WireUpdate {
        WireUpdate {
            object: ObjectId(object),
            diff,
            version: Version::new(LogicalTime::from_ticks(ticks), writer),
        }
    }

    fn no_seed(_: ObjectId) -> Option<Vec<u8>> {
        None
    }

    fn encode(
        updates: &[WireUpdate],
        seed: &mut dyn FnMut(ObjectId) -> Option<Vec<u8>>,
    ) -> Vec<u8> {
        let mut tx = ShadowState::default();
        encode_updates(updates, ME, false, &mut tx, seed).expect("encodable").1
    }

    fn decode(
        blob: &[u8],
        seed: &mut dyn FnMut(ObjectId) -> Option<Vec<u8>>,
    ) -> Result<Vec<WireUpdate>, NetError> {
        decode_updates(blob, 0, ME, &mut ShadowState::default(), seed)
    }

    fn roundtrip_abs(updates: Vec<WireUpdate>) {
        let mut tx = ShadowState::default();
        let mut rx = ShadowState::default();
        let (basis, blob) =
            encode_updates(&updates, ME, false, &mut tx, &mut no_seed).expect("encodable");
        let decoded = decode_updates(&blob, basis, ME, &mut rx, &mut no_seed).unwrap();
        assert_eq!(decoded, updates);
    }

    #[test]
    fn absolute_roundtrip_is_bit_exact() {
        roundtrip_abs(vec![]);
        roundtrip_abs(vec![upd(3, Diff::single(2, vec![1, 2, 3]), 9, 1)]);
        roundtrip_abs(vec![
            upd(0, Diff::single(0, vec![0; 64]), 1, 0),
            upd(u32::MAX, Diff::single(u32::MAX - 8, vec![7; 8]), i64::MAX as u64, u16::MAX),
            upd(5, Diff::empty(), 3, 2),
        ]);
        // The extreme times and ids each delta can reach.
        roundtrip_abs(vec![
            upd(u32::MAX, Diff::empty(), u64::MAX, 1),
            upd(0, Diff::empty(), u64::MAX - i64::MAX as u64, 1),
            upd(u32::MAX, Diff::empty(), u64::MAX, 1),
        ]);
        // Multi-run diffs exercise the gap encoding.
        let old = vec![0u8; 256];
        let mut new = old.clone();
        new[3] = 1;
        new[100] = 2;
        new[255] = 3;
        roundtrip_abs(vec![upd(1, Diff::between(&old, &new), 4, 4)]);
    }

    #[test]
    fn zero_heavy_updates_shrink_dramatically() {
        // A 4 KiB run where only 1% of bytes are non-zero: v1 ships the
        // whole body; v2's zero-RLE collapses it.
        let mut body = vec![0u8; 4096];
        for i in (0..4096).step_by(100) {
            body[i] = 0xAB;
        }
        let updates = vec![upd(1, Diff::single(0, body), 1, 1)];
        let blob = encode(&updates, &mut no_seed);
        let v1_len: usize = updates.iter().map(|u| u.diff.encoded_len()).sum();
        assert!(blob.len() * 5 < v1_len, "expected ≥5× shrink, got {} vs {v1_len}", blob.len());
    }

    #[test]
    fn xor_delta_roundtrips_and_beats_absolute() {
        // Peer's shadow holds the previous block contents; the new write
        // changes 8 of 1024 bytes but ships the whole block (the game's
        // write pattern). XOR turns it into almost all zeros.
        let initial: Vec<u8> = (0..1024u32).map(|i| (i * 7) as u8).collect();
        let mut new_body = initial.clone();
        for i in 0..8 {
            new_body[i * 100] ^= 0xFF;
        }
        let updates = vec![upd(2, Diff::single(0, new_body), 5, 3)];

        let mut seed = |o: ObjectId| (o == ObjectId(2)).then(|| initial.clone());
        let mut tx = ShadowState::default();
        let mut rx = ShadowState::default();
        let (b_xor, xor_blob) =
            encode_updates(&updates, ME, true, &mut tx, &mut seed).expect("encodable");
        let decoded = decode_updates(&xor_blob, b_xor, ME, &mut rx, &mut seed).unwrap();
        assert_eq!(decoded, updates, "XOR decode must be bit-exact");

        let abs_blob = encode(&updates, &mut no_seed);
        assert!(
            xor_blob.len() * 10 < abs_blob.len(),
            "XOR blob {} should be ≥10× smaller than absolute {}",
            xor_blob.len(),
            abs_blob.len()
        );
    }

    #[test]
    fn xor_shadows_stay_in_lockstep_across_batches() {
        let initial = vec![0x55u8; 512];
        let mut seed_tx = {
            let initial = initial.clone();
            move |_: ObjectId| Some(initial.clone())
        };
        let mut seed_rx = {
            let initial = initial.clone();
            move |_: ObjectId| Some(initial.clone())
        };
        let mut tx = ShadowState::default();
        let mut rx = ShadowState::default();
        let mut reference = initial.clone();
        for round in 0..20u64 {
            let mut body = reference.clone();
            let at = (round as usize * 37) % 500;
            body[at] = round as u8;
            body[at + 3] = !(round as u8);
            let updates = vec![upd(9, Diff::between(&reference, &body), round, 1)];
            let (basis, blob) =
                encode_updates(&updates, ME, true, &mut tx, &mut seed_tx).expect("encodable");
            assert_eq!(basis, round);
            let decoded = decode_updates(&blob, basis, ME, &mut rx, &mut seed_rx).unwrap();
            assert_eq!(decoded, updates, "round {round}");
            for u in &decoded {
                u.diff.apply(&mut reference).unwrap();
            }
        }
    }

    #[test]
    fn basis_mismatch_is_a_loud_error() {
        let updates = vec![upd(1, Diff::single(0, vec![1, 2, 3]), 1, 1)];
        let mut tx = ShadowState::default();
        let (basis, blob) = encode_updates(&updates, ME, false, &mut tx, &mut no_seed).unwrap();
        let mut rx = ShadowState { basis: basis + 1, ..ShadowState::default() };
        let err = decode_updates(&blob, basis, ME, &mut rx, &mut no_seed).unwrap_err();
        assert!(err.to_string().contains("lockstep"), "{err}");
    }

    #[test]
    fn xor_without_seed_falls_back_to_v1() {
        let updates = vec![upd(7, Diff::single(0, vec![1; 16]), 1, 1)];
        let mut tx = ShadowState::default();
        assert!(encode_updates(&updates, ME, true, &mut tx, &mut no_seed).is_none());
        assert_eq!(tx.basis(), 0, "failed encode must not advance the basis");
    }

    #[test]
    fn oversized_run_falls_back_to_v1() {
        let updates = vec![upd(1, Diff::single(0, vec![1; (MAX_RUN_LEN + 1) as usize]), 1, 1)];
        let mut tx = ShadowState::default();
        assert!(encode_updates(&updates, ME, false, &mut tx, &mut no_seed).is_none());
    }

    #[test]
    fn time_delta_beyond_i64_falls_back_to_v1() {
        let updates =
            vec![upd(1, Diff::empty(), 0, 1), upd(2, Diff::empty(), i64::MAX as u64 + 1, 1)];
        let mut tx = ShadowState::default();
        assert!(encode_updates(&updates, ME, false, &mut tx, &mut no_seed).is_none());
        assert_eq!(tx.basis(), 0, "failed encode must not advance the basis");
        // One step less fits.
        roundtrip_abs(vec![upd(1, Diff::empty(), 0, 1), upd(2, Diff::empty(), i64::MAX as u64, 1)]);
    }

    #[test]
    fn hostile_blobs_error_and_never_panic() {
        let updates = vec![
            upd(3, Diff::single(2, vec![0, 1, 0, 0, 0, 2]), 9, 1),
            upd(4, Diff::single(40, vec![5; 30]), 10, 2),
        ];
        let blob = encode(&updates, &mut no_seed);
        // Truncations.
        for cut in 0..blob.len() {
            assert!(decode(&blob[..cut], &mut no_seed).is_err());
        }
        // Single-byte corruption: must error or decode to something else,
        // never panic or hang.
        for i in 0..blob.len() {
            let mut bad = blob.to_vec();
            bad[i] = 0xFF;
            let _ = decode(&bad, &mut no_seed);
        }
        // A huge claimed run length must not allocate its claim.
        let mut w = WireWriter::new();
        w.put_varint(1); // one update
        w.put_u8(FLAG_OWN); // flags
        w.put_varint(1); // object
        w.put_varint(0); // time
        w.put_varint(1); // one run
        w.put_varint(0); // offset
        w.put_varint(u32::MAX as u64); // far beyond the decoder budget
        let err = decode(&w.into_bytes(), &mut no_seed).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
    }

    #[test]
    fn empty_rle_token_rejected() {
        let mut w = WireWriter::new();
        w.put_varint(1); // one update
        w.put_u8(FLAG_OWN); // flags
        w.put_varint(1); // object
        w.put_varint(0); // time
        w.put_varint(1); // one run
        w.put_varint(0); // offset
        w.put_varint(4); // len 4
        w.put_varint(0); // token: 0 zeros,
        w.put_varint(0); //        0 literals — would loop forever
        assert!(decode(&w.into_bytes(), &mut no_seed).is_err());
    }

    #[test]
    fn reset_clears_shadows_and_basis() {
        let initial = vec![1u8; 64];
        let mut seed = move |_: ObjectId| Some(initial.clone());
        let mut tx = ShadowState::default();
        let updates = vec![upd(1, Diff::single(0, vec![2; 64]), 1, 1)];
        encode_updates(&updates, ME, true, &mut tx, &mut seed).unwrap();
        assert_eq!(tx.basis(), 1);
        assert!(!tx.shadows.is_empty());
        tx.reset();
        assert_eq!(tx.basis(), 0);
        assert!(tx.shadows.is_empty());
    }

    #[test]
    fn varint_len_matches_encoder() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut w = WireWriter::new();
            w.put_varint(v);
            assert_eq!(w.len(), varint_len(v), "varint_len({v})");
        }
    }

    /// Registered 8-byte bodies for objects 5 and 6; nothing else shared.
    fn seed_5_6(o: ObjectId) -> Option<Vec<u8>> {
        (o == ObjectId(5) || o == ObjectId(6)).then(|| vec![0; 8])
    }

    #[test]
    fn golden_two_update_batch() {
        // Pins the canonical layout: a change here is a new wire layout
        // and must come with a new `CODEC_V2` number.
        let updates = vec![
            upd(5, Diff::single(0, vec![0, 0, 0, 7, 0, 0, 0, 0]), 100, ME),
            upd(6, Diff::single(2, vec![9, 9]), 99, 2),
        ];
        let blob = encode(&updates, &mut seed_5_6);
        #[rustfmt::skip]
        let golden = [
            0x02,                   // two updates
            // Own whole-object write: no writer, no run list.
            FLAG_WHOLE | FLAG_OWN,
            0x05, 0x64,             // object 5, time 100
            0x03, 0x01, 0x07,       // 3 zeros, 1 literal: 7
            0x04,                   // 4 zeros end the run: no literal count
            // Foreign partial write: everything spelled out.
            0x00,
            0x02, 0x01,             // object +1, time −1 (zigzag)
            0x02,                   // writer 2
            0x01, 0x02, 0x02,       // one run: gap 2, len 2
            0x00, 0x02, 0x09, 0x09, // 0 zeros, 2 literals: 9 9
        ];
        assert_eq!(blob, golden);
        assert_eq!(CODEC_V2, 4, "a layout change bumps the offer number");
        assert_eq!(decode(&blob, &mut seed_5_6).unwrap(), updates);
    }

    #[test]
    fn implied_fields_are_used_only_when_they_hold() {
        let flags_of = |updates: &[WireUpdate]| encode(updates, &mut seed_5_6)[1];
        let whole = || Diff::single(0, vec![1; 8]);
        assert_eq!(flags_of(&[upd(5, whole(), 1, ME)]), FLAG_WHOLE | FLAG_OWN);
        assert_eq!(flags_of(&[upd(5, whole(), 1, 0)]), FLAG_WHOLE, "foreign writer");
        assert_eq!(flags_of(&[upd(5, Diff::single(1, vec![1; 7]), 1, ME)]), FLAG_OWN, "offset");
        assert_eq!(flags_of(&[upd(5, Diff::single(0, vec![1; 7]), 1, ME)]), FLAG_OWN, "short");
        assert_eq!(flags_of(&[upd(5, Diff::single(0, vec![1; 9]), 1, ME)]), FLAG_OWN, "long");
        assert_eq!(flags_of(&[upd(9, Diff::single(0, vec![1; 8]), 1, ME)]), FLAG_OWN, "unshared");
        let two_runs = Diff::from_sorted_runs(vec![(0, vec![1; 4]), (4, vec![2; 4])]).unwrap();
        assert_eq!(flags_of(&[upd(5, two_runs, 1, ME)]), FLAG_OWN, "two runs");
    }

    #[test]
    fn whole_update_for_an_unseedable_object_is_rejected() {
        let blob = encode(&[upd(5, Diff::single(0, vec![1; 8]), 1, ME)], &mut seed_5_6);
        assert_eq!(blob[1], FLAG_WHOLE | FLAG_OWN);
        let err = decode(&blob, &mut no_seed).unwrap_err();
        assert!(err.to_string().contains("registered length"), "{err}");
    }

    #[test]
    fn non_canonical_forms_are_rejected() {
        // An explicit writer that is the sender.
        let mut w = WireWriter::new();
        w.put_varint(1);
        w.put_u8(0);
        w.put_varint(9); // object (unshared)
        w.put_varint(1); // time
        w.put_varint(u64::from(ME)); // writer == sender: should have been OWN
        w.put_varint(0); // no runs
        let err = decode(&w.into_bytes(), &mut seed_5_6).unwrap_err();
        assert!(err.to_string().contains("OWN"), "{err}");
        // The same blob from another sender is canonical.
        let mut w = WireWriter::new();
        w.put_varint(1);
        w.put_u8(0);
        w.put_varint(9);
        w.put_varint(1);
        w.put_varint(u64::from(ME));
        w.put_varint(0);
        assert!(decode_updates(&w.into_bytes(), 0, 2, &mut ShadowState::default(), &mut seed_5_6)
            .is_ok());

        // An explicit single run covering the whole registered object.
        let explicit_whole = |object: u64| {
            let mut w = WireWriter::new();
            w.put_varint(1);
            w.put_u8(FLAG_OWN);
            w.put_varint(object);
            w.put_varint(1); // time
            w.put_varint(1); // one run
            w.put_varint(0); // offset 0
            w.put_varint(8); // len 8 == registered size
            w.put_varint(8); // eight zeros end the run
            w.into_bytes()
        };
        let err = decode(&explicit_whole(5), &mut seed_5_6).unwrap_err();
        assert!(err.to_string().contains("WHOLE"), "{err}");
        // For an unshared object there is no registered length to imply.
        assert!(decode(&explicit_whole(9), &mut seed_5_6).is_ok());
    }

    #[test]
    fn overflowing_deltas_are_rejected() {
        let batch = |first: (u64, u64), second: (u64, u64)| {
            let mut w = WireWriter::new();
            w.put_varint(2);
            for (object, time) in [first, second] {
                w.put_u8(FLAG_OWN);
                w.put_varint(object);
                w.put_varint(time);
                w.put_varint(0); // no runs
            }
            w.into_bytes()
        };
        let ok = |b: &[u8]| decode(b, &mut no_seed).is_ok();
        assert!(ok(&batch((u64::from(u32::MAX) - 1, 0), (zigzag(1), 0))));
        assert!(!ok(&batch((u64::from(u32::MAX), 0), (zigzag(1), 0))), "object above u32");
        assert!(!ok(&batch((0, 0), (zigzag(-1), 0))), "object below 0");
        assert!(!ok(&batch((0, 0), (zigzag(i64::MIN), 0))), "object far below 0");
        assert!(ok(&batch((0, u64::MAX - 1), (0, zigzag(1)))));
        assert!(!ok(&batch((0, u64::MAX), (0, zigzag(1)))), "time above u64");
        assert!(!ok(&batch((0, 0), (0, zigzag(-1)))), "time below 0");
        assert!(!ok(&batch((0, u64::MAX), (0, zigzag(i64::MAX)))), "time far above u64");
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    /// The sender of every generated batch.
    const ME: NodeId = 1;

    /// A hostile alphabet: heavily biased toward the RLE edge cases
    /// (zero stretches, 0xFF walls) with a sprinkle of everything else.
    fn arb_body(max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..max).prop_map(|raw| {
            raw.into_iter()
                .map(|b| match b {
                    // ~47% zeros: long runs that must round-trip through
                    // the zero-RLE arm, including runs crossing ZERO_BREAK.
                    0..=119 => 0u8,
                    // ~23% 0xFF walls: worst case for the literal arm.
                    120..=179 => 0xFF,
                    other => other,
                })
                .collect()
        })
    }

    /// Arbitrary well-formed update batches: sorted, possibly adjacent,
    /// possibly empty runs (a zero-length run and a zero-run diff are
    /// both legal wire states), hostile bodies.
    fn arb_updates() -> impl Strategy<Value = Vec<WireUpdate>> {
        let run = (0u32..40, arb_body(48));
        let update = (0u32..1000, proptest::collection::vec(run, 0..5), 0u64..10_000, any::<u16>());
        proptest::collection::vec(update, 0..6).prop_map(|raw| {
            raw.into_iter()
                .map(|(object, raw_runs, ticks, writer)| {
                    let mut offset = 0u64;
                    let mut runs = Vec::new();
                    for (gap, body) in raw_runs {
                        offset += u64::from(gap);
                        runs.push((offset as u32, body.clone()));
                        offset += body.len() as u64;
                    }
                    WireUpdate {
                        object: ObjectId(object),
                        diff: Diff::from_sorted_runs(runs).expect("runs built sorted"),
                        version: Version::new(LogicalTime::from_ticks(ticks), writer),
                    }
                })
                .collect()
        })
    }

    /// Registered length of the shared objects 0..6 (24..44 bytes);
    /// objects 6 and 7 are unshared.
    fn registered(object: ObjectId) -> Option<usize> {
        (object.0 < 6).then(|| 24 + 4 * object.0 as usize)
    }

    /// Initial body of a shared object: a recognisable non-zero pattern.
    fn seed(object: ObjectId) -> Option<Vec<u8>> {
        registered(object).map(|n| (0..n).map(|i| (i as u8).wrapping_mul(37) ^ 0x5A).collect())
    }

    /// Update batches built to hit every header arm: own and foreign
    /// writers, whole-object writes, partial and multi-run diffs, runs
    /// reaching past the registered length, unshared objects, and ids and
    /// times that step both ways.
    fn arb_mixed() -> impl Strategy<Value = Vec<WireUpdate>> {
        let run = (0u32..12, arb_body(20));
        let update = (
            0u32..8,
            0u8..3,
            proptest::collection::vec(run, 0..4),
            arb_body(48),
            0u64..5_000,
            0u16..4,
        );
        proptest::collection::vec(update, 0..6).prop_map(|raw| {
            raw.into_iter()
                .map(|(object, shape, raw_runs, body, ticks, writer)| {
                    let object = ObjectId(object);
                    let diff = match (shape, registered(object)) {
                        // A whole-object write (the game's pattern).
                        (0, Some(size)) => {
                            let mut body = body;
                            body.resize(size, 0xC3);
                            Diff::from_sorted_runs(vec![(0, body)]).expect("one run")
                        }
                        // One run from 0, possibly past the registered end.
                        (1, _) => Diff::from_sorted_runs(vec![(0, body)]).expect("one run"),
                        // Sorted runs at arbitrary gaps.
                        _ => {
                            let mut offset = 0u32;
                            let mut runs = Vec::new();
                            for (gap, bytes) in raw_runs {
                                offset += gap;
                                let len = bytes.len() as u32;
                                runs.push((offset, bytes));
                                offset += len;
                            }
                            Diff::from_sorted_runs(runs).expect("runs built sorted")
                        }
                    };
                    WireUpdate {
                        object,
                        diff,
                        version: Version::new(LogicalTime::from_ticks(ticks), writer),
                    }
                })
                .collect()
        })
    }

    /// The blob length the documented layout prices `updates` at, given
    /// each update's body cost: a model of the format independent of the
    /// encoder's control flow.
    fn model_len(updates: &[WireUpdate], mut body_cost: impl FnMut(&WireUpdate) -> usize) -> usize {
        let mut len = varint_len(updates.len() as u64);
        let mut prev: Option<&WireUpdate> = None;
        for u in updates {
            len += 1; // flags
            let (object, time) = (u.object.0, u.version.time.as_ticks());
            len += match prev {
                None => varint_len(u64::from(object)) + varint_len(time),
                Some(p) => {
                    let d_obj = i64::from(object) - i64::from(p.object.0);
                    let d_time = time as i64 - p.version.time.as_ticks() as i64;
                    varint_len(zigzag(d_obj)) + varint_len(zigzag(d_time))
                }
            };
            prev = Some(u);
            if u.version.writer != ME {
                len += varint_len(u64::from(u.version.writer));
            }
            let runs: Vec<_> = u.diff.runs().collect();
            let whole = matches!(
                (runs.as_slice(), registered(u.object)),
                ([(0, bytes)], Some(size)) if bytes.len() == size
            );
            if !whole {
                len += varint_len(runs.len() as u64);
                let mut end = 0u64;
                for (offset, bytes) in &runs {
                    len += varint_len(u64::from(*offset) - end) + varint_len(bytes.len() as u64);
                    end = u64::from(*offset) + bytes.len() as u64;
                }
            }
            len += body_cost(u);
        }
        len
    }

    fn abs_cost(u: &WireUpdate) -> usize {
        u.diff.runs().map(|(_, bytes)| rle_cost(bytes)).sum()
    }

    fn no_seed(_: ObjectId) -> Option<Vec<u8>> {
        None
    }

    proptest! {
        #[test]
        fn rle_stream_roundtrips_and_cost_is_exact(body in arb_body(512)) {
            let mut w = WireWriter::new();
            rle_encode(&mut w, &body);
            prop_assert_eq!(w.len(), rle_cost(&body), "rle_cost must price the real stream");
            let encoded = w.into_bytes();
            let mut r = WireReader::new(&encoded);
            let decoded = rle_decode(&mut r, body.len()).unwrap();
            prop_assert_eq!(decoded, body);
            prop_assert_eq!(r.remaining(), 0, "decode must consume the whole stream");
        }

        #[test]
        fn absolute_batches_roundtrip_bit_exact(updates in arb_updates()) {
            let mut tx = ShadowState::default();
            let mut rx = ShadowState::default();
            let (basis, blob) =
                encode_updates(&updates, ME, false, &mut tx, &mut no_seed).expect("encodable");
            let decoded = decode_updates(&blob, basis, ME, &mut rx, &mut no_seed).unwrap();
            prop_assert_eq!(decoded, updates);
        }

        #[test]
        fn max_offset_runs_roundtrip(len in 1usize..64, back in 0u32..128, body in arb_body(64)) {
            // Runs butted against the top of the u32 address space: the
            // gap encoding must survive offsets the varint widens to five
            // bytes, and offset+len == u32::MAX exactly must be legal.
            let len = len.max(body.len().max(1));
            let mut bytes = body;
            bytes.resize(len, 0xA5);
            let offset = u32::MAX - bytes.len() as u32 - back;
            let updates = vec![WireUpdate {
                object: ObjectId(u32::MAX),
                diff: Diff::from_sorted_runs(vec![(offset, bytes)]).unwrap(),
                version: Version::new(LogicalTime::from_ticks(u64::MAX), u16::MAX),
            }];
            let mut tx = ShadowState::default();
            let mut rx = ShadowState::default();
            let (basis, blob) =
                encode_updates(&updates, ME, false, &mut tx, &mut no_seed).expect("encodable");
            let decoded = decode_updates(&blob, basis, ME, &mut rx, &mut no_seed).unwrap();
            prop_assert_eq!(decoded, updates);
        }

        #[test]
        fn mixed_batches_roundtrip_at_their_modelled_length(
            batches in proptest::collection::vec(arb_mixed(), 1..5),
            xor in any::<bool>(),
        ) {
            // Several batches on one link, so XOR shadows evolve (and grow
            // when a run reaches past them) between encodes.
            let mut tx = ShadowState::default();
            let mut rx = ShadowState::default();
            let mut mirror: HashMap<ObjectId, Vec<u8>> = HashMap::new();
            for updates in batches {
                let seedable = updates.iter().all(|u| registered(u.object).is_some());
                let Some((basis, blob)) =
                    encode_updates(&updates, ME, xor, &mut tx, &mut seed)
                else {
                    prop_assert!(xor && !seedable, "only XOR of an unshared object falls back");
                    prop_assert_eq!(tx.basis(), rx.basis(), "a fallback advances nothing");
                    continue;
                };
                // XOR is chosen per update exactly when it is cheaper
                // against the peer's pre-batch shadow.
                let expected = model_len(&updates, |u| {
                    let abs = abs_cost(u);
                    match mirror.entry(u.object).or_insert_with(|| seed(u.object).unwrap_or_default()) {
                        shadow if xor => {
                            let mut scratch = Vec::new();
                            let xored: usize = u.diff.runs().map(|(offset, bytes)| {
                                xor_into(&mut scratch, bytes, shadow, offset);
                                rle_cost(&scratch)
                            }).sum();
                            abs.min(xored)
                        }
                        _ => abs,
                    }
                });
                prop_assert_eq!(blob.len(), expected, "blob length must match the layout");
                let decoded = decode_updates(&blob, basis, ME, &mut rx, &mut seed).unwrap();
                prop_assert_eq!(&decoded, &updates);
                for u in &updates {
                    let shadow = mirror.entry(u.object).or_default();
                    for (offset, bytes) in u.diff.runs() {
                        let end = offset as usize + bytes.len();
                        if shadow.len() < end {
                            shadow.resize(end, 0);
                        }
                        shadow[offset as usize..end].copy_from_slice(bytes);
                    }
                }
                if xor {
                    // A fallback may have seeded a sender shadow the
                    // receiver has not touched yet; both read the same.
                    let view = |state: &ShadowState, o: &ObjectId| {
                        state.shadows.get(o).map(|s| s.bytes.clone()).or_else(|| seed(*o))
                    };
                    for o in tx.shadows.keys().chain(rx.shadows.keys()) {
                        prop_assert_eq!(view(&tx, o), view(&rx, o), "shadows in lockstep");
                    }
                }
            }
        }

        #[test]
        fn every_truncation_of_a_valid_blob_errors(updates in arb_mixed()) {
            let mut tx = ShadowState::default();
            let (basis, blob) =
                encode_updates(&updates, ME, false, &mut tx, &mut seed).expect("encodable");
            for cut in 0..blob.len() {
                let mut rx = ShadowState::default();
                prop_assert!(
                    decode_updates(&blob[..cut], basis, ME, &mut rx, &mut seed).is_err(),
                    "a {cut}-byte prefix of a {}-byte blob decoded", blob.len()
                );
            }
        }

        #[test]
        fn xor_delta_is_identity_under_randomized_frontiers(
            initial in arb_body(96),
            rounds in proptest::collection::vec(
                (proptest::collection::vec((0u32..96, arb_body(16)), 1..4), any::<bool>()),
                1..12,
            ),
        ) {
            // Both ends start from the shared initial body, then the
            // acked frontier (what the shadows have seen) is randomized
            // by interleaving v1-fallback rounds that advance neither
            // shadow: XORed batches must still decode to the exact
            // encoder input, whatever state the frontier stopped at.
            let object = ObjectId(7);
            let size = initial.len().max(1);
            let mut seed_tx = {
                let initial = initial.clone();
                move |_: ObjectId| Some(initial.clone())
            };
            let mut seed_rx = {
                let initial = initial.clone();
                move |_: ObjectId| Some(initial.clone())
            };
            let mut tx = ShadowState::default();
            let mut rx = ShadowState::default();
            let mut reference = {
                let mut r = initial.clone();
                r.resize(size, 0);
                r
            };
            for (round, (writes, skip_as_v1)) in rounds.into_iter().enumerate() {
                let mut image = reference.clone();
                for (off, bytes) in writes {
                    let off = off as usize % size;
                    for (i, b) in bytes.iter().enumerate() {
                        if off + i < size {
                            image[off + i] = *b;
                        }
                    }
                }
                let updates = vec![WireUpdate {
                    object,
                    diff: Diff::between(&reference, &image),
                    version: Version::new(LogicalTime::from_ticks(round as u64 + 1), 1),
                }];
                if skip_as_v1 {
                    // A v1-fallback batch: delivered out of band, advances
                    // no shadow — the frontier now lags the real state.
                    reference = image;
                    continue;
                }
                let basis_before = tx.basis();
                let (basis, blob) =
                    encode_updates(&updates, ME, true, &mut tx, &mut seed_tx).expect("seeded");
                prop_assert_eq!(basis, basis_before);
                let decoded = decode_updates(&blob, basis, ME, &mut rx, &mut seed_rx).unwrap();
                prop_assert_eq!(&decoded, &updates, "apply∘encode must be the identity");
                prop_assert_eq!(tx.basis(), rx.basis(), "lockstep");
                reference = image;
            }
            // Whatever the frontier did, both shadows agree byte-for-byte.
            prop_assert_eq!(tx.shadows.get(&object), rx.shadows.get(&object));
        }
    }
}

//! Property tests of the core data structures' invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sdso_core::{Diff, DirtyRanges, ExchangeList, LogicalTime, ObjectId, SlottedBuffer, Version};

// ---------------------------------------------------------------------
// ExchangeList: earliest-first ordering, uniqueness, due semantics
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn exchange_list_keeps_one_entry_per_peer(
        ops in proptest::collection::vec((0u16..8, 1u64..100), 0..64)
    ) {
        let mut list = ExchangeList::new();
        let mut expected = std::collections::BTreeMap::new();
        for (peer, time) in ops {
            list.schedule(peer, LogicalTime::from_ticks(time));
            expected.insert(peer, time);
        }
        prop_assert_eq!(list.len(), expected.len());
        for (&peer, &time) in &expected {
            prop_assert_eq!(list.time_for(peer), Some(LogicalTime::from_ticks(time)));
        }
    }

    #[test]
    fn exchange_list_iterates_earliest_first(
        ops in proptest::collection::vec((0u16..16, 1u64..100), 1..64)
    ) {
        let mut list = ExchangeList::new();
        for (peer, time) in ops {
            list.schedule(peer, LogicalTime::from_ticks(time));
        }
        let times: Vec<u64> = list.iter().map(|(t, _)| t.as_ticks()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(times, sorted, "iteration must be time-ordered");
    }

    #[test]
    fn due_splits_the_list_consistently(
        ops in proptest::collection::vec((0u16..16, 1u64..100), 1..64),
        now in 0u64..120,
    ) {
        let mut list = ExchangeList::new();
        for (peer, time) in ops {
            list.schedule(peer, LogicalTime::from_ticks(time));
        }
        let now_t = LogicalTime::from_ticks(now);
        let due = list.due(now_t);
        for peer in &due {
            prop_assert!(list.time_for(*peer).unwrap() <= now_t);
        }
        let due_set: std::collections::BTreeSet<u16> = due.iter().copied().collect();
        for (time, peer) in list.iter() {
            prop_assert_eq!(time <= now_t, due_set.contains(&peer));
        }
    }

    #[test]
    fn remove_then_peek_is_consistent(
        ops in proptest::collection::vec((0u16..8, 1u64..50), 1..32),
        victim in 0u16..8,
    ) {
        let mut list = ExchangeList::new();
        for (peer, time) in &ops {
            list.schedule(*peer, LogicalTime::from_ticks(*time));
        }
        let had = list.time_for(victim).is_some();
        let removed = list.remove(victim);
        prop_assert_eq!(removed.is_some(), had);
        prop_assert_eq!(list.time_for(victim), None);
        if let Some((_, p)) = list.peek_next() {
            prop_assert_ne!(p, victim);
        }
    }
}

// ---------------------------------------------------------------------
// SlottedBuffer: merged slots reproduce sequential application
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn slotted_buffer_merging_preserves_final_state(
        writes in proptest::collection::vec((0u32..4, 0u32..16, any::<u8>()), 1..40)
    ) {
        // Apply the same write sequence (a) directly to a buffer and
        // (b) through the slotted buffer's merged diffs: results match.
        const SIZE: usize = 24;
        let mut direct = vec![vec![0u8; SIZE]; 4];
        let mut buf = SlottedBuffer::new(2, 0, true);

        for (i, &(obj, offset, byte)) in writes.iter().enumerate() {
            let offset = offset % (SIZE as u32 - 1);
            direct[obj as usize][offset as usize] = byte;
            let stamp = Version::new(LogicalTime::from_ticks(i as u64 + 1), 0);
            buf.buffer_for_all(ObjectId(obj), &Diff::single(offset, vec![byte]), stamp, &[]);
        }

        let mut via_slots = vec![vec![0u8; SIZE]; 4];
        for update in buf.drain_slot(1) {
            update.diff.apply(&mut via_slots[update.object.0 as usize]).unwrap();
        }
        prop_assert_eq!(via_slots, direct);
    }

    #[test]
    fn slotted_buffer_unmerged_replay_matches_too(
        writes in proptest::collection::vec((0u32..3, 0u32..8, any::<u8>()), 1..24)
    ) {
        const SIZE: usize = 12;
        let mut direct = vec![vec![0u8; SIZE]; 3];
        let mut buf = SlottedBuffer::new(2, 0, false);
        for (i, &(obj, offset, byte)) in writes.iter().enumerate() {
            let offset = offset % (SIZE as u32 - 1);
            direct[obj as usize][offset as usize] = byte;
            let stamp = Version::new(LogicalTime::from_ticks(i as u64 + 1), 0);
            buf.buffer_for_all(ObjectId(obj), &Diff::single(offset, vec![byte]), stamp, &[]);
        }
        let mut replayed = vec![vec![0u8; SIZE]; 3];
        for update in buf.drain_slot(1) {
            update.diff.apply(&mut replayed[update.object.0 as usize]).unwrap();
        }
        prop_assert_eq!(replayed, direct);
    }
}

// ---------------------------------------------------------------------
// Dirty-range tracking: the change-proportional diff path is
// indistinguishable from the full scan
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn tracked_diff_matches_full_scan(
        size in 16usize..192,
        writes in proptest::collection::vec((0u32..192, 1u32..24, any::<u8>()), 0..24),
    ) {
        // Apply random write spans to an image, recording each span in a
        // DirtyRanges. The range-guided diff must equal the full scan
        // byte for byte — including coalescing across span boundaries.
        let old = vec![0u8; size];
        let mut new = old.clone();
        let mut dirty = DirtyRanges::new();
        for &(off, len, byte) in &writes {
            let off = (off as usize) % size;
            let len = (len as usize).min(size - off);
            for b in &mut new[off..off + len] {
                *b = byte;
            }
            dirty.record(off as u32, len as u32);
        }
        let tracked = Diff::between_ranges(&old, &new, &dirty);
        let full = Diff::between(&old, &new);
        prop_assert_eq!(tracked, full);
    }

    #[test]
    fn tracked_diff_survives_span_overflow(
        writes in proptest::collection::vec((0u32..4096, 1u32..8), 60..120),
    ) {
        // Enough scattered writes overflow the span cap and collapse the
        // tracker to "untracked"; the diff must still be the full scan.
        const SIZE: usize = 4096;
        let old = vec![0u8; SIZE];
        let mut new = old.clone();
        let mut dirty = DirtyRanges::new();
        for &(off, len) in &writes {
            let off = (off as usize) % SIZE;
            let len = (len as usize).min(SIZE - off);
            for b in &mut new[off..off + len] {
                *b = 0xAB;
            }
            dirty.record(off as u32, len as u32);
        }
        prop_assert_eq!(
            Diff::between_ranges(&old, &new, &dirty),
            Diff::between(&old, &new)
        );
    }

    #[test]
    fn merge_in_place_is_equivalent_to_overlay_merge(
        size in 8usize..96,
        old_writes in proptest::collection::vec((0u32..96, 1u32..12, any::<u8>()), 0..12),
        new_writes in proptest::collection::vec((0u32..96, 1u32..12, any::<u8>()), 0..12),
    ) {
        // Build two well-formed diffs from random images and merge them
        // both ways: the in-place run-list merge must produce exactly the
        // diff the allocating overlay merge produces.
        let base = vec![0u8; size];
        let mut img_a = base.clone();
        for &(off, len, byte) in &old_writes {
            let off = (off as usize) % size;
            let len = (len as usize).min(size - off);
            img_a[off..off + len].fill(byte);
        }
        let mut img_b = base.clone();
        for &(off, len, byte) in &new_writes {
            let off = (off as usize) % size;
            let len = (len as usize).min(size - off);
            img_b[off..off + len].fill(byte);
        }
        let older = Diff::between(&base, &img_a);
        let newer = Diff::between(&base, &img_b);

        let overlay = older.merge(&newer);
        let mut in_place = older.clone();
        in_place.merge_in_place(&newer);
        prop_assert_eq!(in_place, overlay);
    }
}

// ---------------------------------------------------------------------
// Diff: wire fuzz — decoding arbitrary bytes never panics
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn diff_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = sdso_net::wire::decode::<Diff>(&bytes); // Err is fine, panic is not
    }

    #[test]
    fn dso_message_decode_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        let _ = sdso_net::wire::decode::<sdso_core::wire::DsoMessage>(&bytes);
    }

    #[test]
    fn every_truncation_of_a_data2_errors(
        epoch in any::<u32>(),
        time in any::<u64>(),
        basis in any::<u64>(),
        small in any::<bool>(),
        blob in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        // Small header values (one- and two-byte varints) are the common
        // case on the wire; full-range ones exercise the ten-byte limit.
        let (time, basis) = if small { (time % 20_000, basis % 200) } else { (time, basis) };
        let msg = sdso_core::wire::DsoMessage::Data2 {
            epoch: sdso_core::Epoch(epoch),
            time: LogicalTime::from_ticks(time),
            basis,
            blob,
        };
        let encoded = sdso_net::wire::encode(&msg);
        prop_assert_eq!(
            sdso_net::wire::decode::<sdso_core::wire::DsoMessage>(&encoded).unwrap(),
            msg
        );
        for cut in 0..encoded.len() {
            prop_assert!(
                sdso_net::wire::decode::<sdso_core::wire::DsoMessage>(&encoded[..cut]).is_err()
            );
        }
    }
}

// ---------------------------------------------------------------------
// SlottedBuffer: per-peer merging is idempotent under duplicates
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn slotted_buffer_per_peer_merge_is_idempotent(
        writes in proptest::collection::vec((0u32..4, 0u32..10, any::<u8>()), 1..32),
        dup_mask in proptest::collection::vec(any::<bool>(), 32),
    ) {
        // Buffering a write twice (a duplicated delivery) must leave every
        // peer's slot with the same merged content as buffering it once:
        // overwrite diffs satisfy merge(d, d) = d, and versions take max.
        const SIZE: usize = 16;
        let mut once = SlottedBuffer::new(3, 0, true);
        let mut twice = SlottedBuffer::new(3, 0, true);
        for (i, &(obj, offset, byte)) in writes.iter().enumerate() {
            let offset = offset % (SIZE as u32 - 1);
            let stamp = Version::new(LogicalTime::from_ticks(i as u64 + 1), 0);
            let diff = Diff::single(offset, vec![byte]);
            once.buffer_for_all(ObjectId(obj), &diff, stamp, &[]);
            twice.buffer_for_all(ObjectId(obj), &diff, stamp, &[]);
            if dup_mask[i % dup_mask.len()] {
                twice.buffer_for_all(ObjectId(obj), &diff, stamp, &[]);
            }
        }
        // Slots are independent per peer: drain both remote peers and
        // compare the replayed bytes object by object.
        for peer in [1u16, 2] {
            let mut from_once = vec![vec![0u8; SIZE]; 4];
            let mut from_twice = vec![vec![0u8; SIZE]; 4];
            for u in once.drain_slot(peer) {
                u.diff.apply(&mut from_once[u.object.0 as usize]).unwrap();
            }
            let drained = twice.drain_slot(peer);
            for u in &drained {
                u.diff.apply(&mut from_twice[u.object.0 as usize]).unwrap();
            }
            prop_assert_eq!(&from_once, &from_twice, "peer {} diverged", peer);
            // Merging keeps one pending update per touched object.
            let touched: std::collections::BTreeSet<u32> =
                drained.iter().map(|u| u.object.0).collect();
            prop_assert_eq!(drained.len(), touched.len());
        }
    }
}

// ---------------------------------------------------------------------
// ObjectStore: agrees with a BTreeMap reference model; revisions
// ---------------------------------------------------------------------

/// The reference model of one replica.
#[derive(Debug, Clone, PartialEq)]
struct ModelReplica {
    data: Vec<u8>,
    initial: Vec<u8>,
    version: Version,
}

/// What an operation returned, with error variants kept apart.
#[derive(Debug, PartialEq)]
enum Outcome {
    Done(bool),
    AlreadyShared(ObjectId),
    UnknownObject(ObjectId),
    OutOfBounds { object: ObjectId, offset: u32, len: usize, size: usize },
    Codec,
}

/// Maps a store result to its [`Outcome`]; a unit success is `Done(true)`.
fn outcome(result: Result<bool, sdso_core::DsoError>) -> Outcome {
    use sdso_core::DsoError;
    match result {
        Ok(applied) => Outcome::Done(applied),
        Err(DsoError::AlreadyShared(id)) => Outcome::AlreadyShared(id),
        Err(DsoError::UnknownObject(id)) => Outcome::UnknownObject(id),
        Err(DsoError::OutOfBounds { object, offset, len, size }) => {
            Outcome::OutOfBounds { object, offset, len, size }
        }
        Err(DsoError::Net(_)) => Outcome::Codec,
        Err(other) => panic!("unexpected store error {other:?}"),
    }
}

/// One store operation: `(kind, id, (offset, len), byte, (tick, writer))`.
type StoreOp = (u8, u32, (u32, usize), u8, (u64, u16));

/// Applies `op` to the model, returning the expected outcome and whether
/// it changed content.
fn model_apply(model: &mut BTreeMap<ObjectId, ModelReplica>, op: StoreOp) -> (Outcome, bool) {
    let (kind, raw_id, (offset, len), byte, (tick, writer)) = op;
    let version = Version::new(LogicalTime::from_ticks(tick), writer);
    // Kind 0 shares the next id above every shared one (an in-order push).
    let id = match kind {
        0 => ObjectId(model.keys().next_back().map_or(0, |id| id.0 + 1)),
        _ => ObjectId(raw_id),
    };
    if kind <= 1 {
        if model.contains_key(&id) {
            return (Outcome::AlreadyShared(id), false);
        }
        let initial = vec![byte; offset as usize % 8 + 1];
        let replica = ModelReplica { data: initial.clone(), initial, version: Version::INITIAL };
        model.insert(id, replica);
        return (Outcome::Done(true), true);
    }
    let Some(r) = model.get_mut(&id) else {
        return (Outcome::UnknownObject(id), false);
    };
    let size = r.data.len();
    let bytes = vec![byte; len];
    match kind {
        2 => {
            let end = offset as usize + len;
            if end > size {
                return (Outcome::OutOfBounds { object: id, offset, len, size }, false);
            }
            r.data[offset as usize..end].copy_from_slice(&bytes);
            r.version = r.version.max(version);
            (Outcome::Done(true), true)
        }
        3 | 4 => {
            // `replace` (3) and `replace_if_newer` (4) with a body of the
            // registered size, or of `len` bytes when `offset` is odd.
            let body = if offset % 2 == 1 { bytes } else { vec![byte; size] };
            if kind == 4 && version <= r.version {
                return (Outcome::Done(false), false);
            }
            if body.len() != size {
                let len = body.len();
                return (Outcome::OutOfBounds { object: id, offset: 0, len, size }, false);
            }
            r.data.copy_from_slice(&body);
            r.version = version;
            (Outcome::Done(true), true)
        }
        5 | 6 => {
            if version <= r.version {
                return (Outcome::Done(false), false);
            }
            // An empty diff has no run to fall outside the object.
            if len > 0 {
                if offset as usize + len > size {
                    return (Outcome::Codec, false);
                }
                r.data[offset as usize..offset as usize + len].copy_from_slice(&bytes);
            }
            r.version = version;
            (Outcome::Done(true), true)
        }
        // Operations that must fail, leaving everything as it was.
        _ => match offset % 3 {
            0 => (Outcome::Codec, false),
            1 => {
                let len = len.max(1);
                (Outcome::OutOfBounds { object: id, offset: size as u32, len, size }, false)
            }
            _ => (Outcome::OutOfBounds { object: id, offset: 0, len: size + 1, size }, false),
        },
    }
}

fn store_apply(store: &mut sdso_core::ObjectStore, model_id: ObjectId, op: StoreOp) -> Outcome {
    let (kind, _, (offset, len), byte, (tick, writer)) = op;
    let version = Version::new(LogicalTime::from_ticks(tick), writer);
    let bytes = vec![byte; len];
    match kind {
        0 | 1 => outcome(store.share(model_id, vec![byte; offset as usize % 8 + 1]).map(|()| true)),
        2 => outcome(store.write(model_id, offset, &bytes, version).map(|()| true)),
        3 | 4 => {
            let size = store.replica(model_id).map_or(0, |r| r.size());
            let body = if offset % 2 == 1 { bytes } else { vec![byte; size] };
            if kind == 3 {
                outcome(store.replace(model_id, &body, version).map(|()| true))
            } else {
                outcome(store.replace_if_newer(model_id, &body, version))
            }
        }
        5 | 6 => outcome(store.apply_remote(model_id, &Diff::single(offset, bytes), version)),
        _ => {
            let size = store.replica(model_id).map_or(0, |r| r.size());
            match offset % 3 {
                // Two runs, the second past the end, stamped newer than
                // any version the other operations draw.
                0 => {
                    let diff = Diff::single(0, vec![byte])
                        .merge(&Diff::single(size as u32 + 1, vec![byte]));
                    let newest = Version::new(LogicalTime::from_ticks(100), 0);
                    outcome(store.apply_remote(model_id, &diff, newest))
                }
                1 => {
                    let bytes = vec![byte; len.max(1)];
                    outcome(store.write(model_id, size as u32, &bytes, version).map(|()| true))
                }
                _ => {
                    outcome(store.replace(model_id, &vec![byte; size + 1], version).map(|()| true))
                }
            }
        }
    }
}

/// Checks every object of `store` against `model`: contents, version and
/// registered bytes.
fn assert_matches(
    store: &sdso_core::ObjectStore,
    model: &BTreeMap<ObjectId, ModelReplica>,
    op: StoreOp,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.len(), model.len());
    for ((id, r), (&mid, m)) in store.iter().zip(model) {
        prop_assert_eq!(id, mid);
        prop_assert_eq!(r.data(), &m.data[..], "{:?} contents after {:?}", id, op);
        prop_assert_eq!(r.version(), m.version, "{:?} version after {:?}", id, op);
        prop_assert_eq!(r.initial_body(), &m.initial[..], "{:?} initial after {:?}", id, op);
        prop_assert_eq!(store.read(id).unwrap(), &m.data[..]);
        prop_assert_eq!(store.initial_body(id), Some(&m.initial[..]));
    }
    Ok(())
}

proptest! {
    #[test]
    fn object_store_matches_a_btreemap_model(
        ops in proptest::collection::vec(
            (0u8..8, 0u32..12, (0u32..10, 0usize..6), any::<u8>(), (0u64..8, 0u16..3)),
            0..96,
        )
    ) {
        let mut model: BTreeMap<ObjectId, ModelReplica> = BTreeMap::new();
        // Two stores fed the identical history.
        let mut a = sdso_core::ObjectStore::new();
        let mut b = sdso_core::ObjectStore::new();
        let mut seen = std::collections::HashSet::new();
        seen.insert(a.revision());
        seen.insert(b.revision());
        for op in ops {
            let id = match op.0 {
                0 => ObjectId(model.keys().next_back().map_or(0, |id| id.0 + 1)),
                _ => ObjectId(op.1),
            };
            let before = a.revision();
            let (expected, mutated) = model_apply(&mut model, op);
            prop_assert_eq!(store_apply(&mut a, id, op), expected, "op {:?}", op);
            store_apply(&mut b, id, op);
            if mutated {
                prop_assert!(seen.insert(a.revision()), "revision reused after {:?}", op);
                prop_assert!(seen.insert(b.revision()), "revision reused after {:?}", op);
            } else {
                prop_assert_eq!(a.revision(), before, "no content change: {:?}", op);
            }
            prop_assert_ne!(a.revision(), b.revision());
            assert_matches(&a, &model, op)?;
        }
        prop_assert_eq!(a.is_empty(), model.is_empty());
        let ids: Vec<ObjectId> = a.iter().map(|(id, _)| id).collect();
        prop_assert_eq!(ids, model.keys().copied().collect::<Vec<_>>(), "iter() in id order");
        for missing in (0..14).map(ObjectId).filter(|id| !model.contains_key(id)) {
            prop_assert!(a.initial_body(missing).is_none());
            prop_assert!(a.read(missing).is_err());
        }
    }
}

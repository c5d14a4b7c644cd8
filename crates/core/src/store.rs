use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock::LogicalTime;
use crate::diff::Diff;
use crate::error::DsoError;
use crate::object::{ObjectId, Version};
use sdso_net::NodeId;

/// A borrowed view of one local replica of a shared object.
#[derive(Debug, Clone, Copy)]
pub struct Replica<'a> {
    data: &'a [u8],
    initial: &'a [u8],
    version: Version,
}

impl<'a> Replica<'a> {
    /// The replica's current bytes.
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    /// The bytes the object was registered with. Every process registers
    /// the same initial contents (the `share` contract), which makes this a
    /// deterministic seed both ends of a link can derive independently —
    /// the wire codec's XOR shadows start from it.
    pub fn initial_body(&self) -> &'a [u8] {
        self.initial
    }

    /// The replica's version stamp.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Object size in bytes (fixed at `share` time).
    pub fn size(&self) -> usize {
        self.data.len()
    }
}

/// Store ids, drawn once per [`ObjectStore`] so no two stores in a process
/// ever share a [`Revision`].
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(0);

/// One state of one store's contents (see [`ObjectStore::revision`]).
///
/// The pair is the store's process-unique id plus its count of content
/// mutations, so two stores with identical histories still differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Revision {
    /// The store's id from `NEXT_STORE_ID`.
    store: u64,
    /// Content mutations since the store was created.
    mutations: u64,
}

/// One object's place in the store.
#[derive(Debug)]
struct Entry {
    id: ObjectId,
    /// The version stamp's two halves, apart so `writer` packs with `id`.
    writer: NodeId,
    time: LogicalTime,
    /// The body is `bodies[at..at + len]`.
    at: usize,
    len: usize,
    /// Where the registered bytes start in `registered`, once the object's
    /// first change has copied them there; `None` while the body still is
    /// the registered bytes.
    registered: Option<usize>,
}

impl Entry {
    fn version(&self) -> Version {
        Version::new(self.time, self.writer)
    }

    fn stamp(&mut self, version: Version) {
        (self.time, self.writer) = (version.time, version.writer);
    }
}

/// A process's local table of object replicas.
///
/// Objects are registered once with [`ObjectStore::share`] ("all objects are
/// declared shared at the initialization phase of a program"; S-DSO has no
/// `unshare`). Every process registers the same objects with the same
/// initial contents, so replicas start identical.
///
/// Entries live in one `Vec` sorted by id: a lookup is a binary search,
/// and sharing ids in ascending order (how every program here registers
/// its objects) is a plain push. Bodies live in one byte slab, appended in
/// `share` order; an object's size never changes, so its offset is stable.
/// An object's registered bytes are copied into a second slab only when it
/// first changes: until then its body is its registered bytes.
#[derive(Debug)]
pub struct ObjectStore {
    /// Sorted by id; ids are unique.
    entries: Vec<Entry>,
    bodies: Vec<u8>,
    /// Registered bytes of the objects that have changed.
    registered: Vec<u8>,
    revision: Revision,
}

impl Default for ObjectStore {
    fn default() -> Self {
        ObjectStore::new()
    }
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> Self {
        // Relaxed: the id only has to be unique; it publishes no other data.
        let store = NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed);
        ObjectStore {
            entries: Vec::new(),
            bodies: Vec::new(),
            registered: Vec::new(),
            revision: Revision { store, mutations: 0 },
        }
    }

    /// The current state of the store's contents. It changes on every
    /// content mutation ([`share`](Self::share), [`write`](Self::write),
    /// [`replace`](Self::replace), an applied
    /// [`apply_remote`](Self::apply_remote)) and never repeats, in this
    /// store or any other, so equal revisions mean identical contents and
    /// anything derived from the contents may be memoised on it. A failed
    /// or stale operation leaves it as it is.
    pub fn revision(&self) -> Revision {
        self.revision
    }

    /// `Ok(index)` of `id` in `entries`, or `Err(index)` it would be
    /// inserted at.
    fn position(&self, id: ObjectId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |e| e.id)
    }

    fn index(&self, id: ObjectId) -> Result<usize, DsoError> {
        self.position(id).map_err(|_| DsoError::UnknownObject(id))
    }

    fn view(&self, e: &Entry) -> Replica<'_> {
        let data = &self.bodies[e.at..e.at + e.len];
        let initial = e.registered.map_or(data, |r| &self.registered[r..r + e.len]);
        Replica { data, initial, version: e.version() }
    }

    /// `entries[i]`'s body, about to change. On the object's first change
    /// its registered bytes are copied aside first, so
    /// [`initial_body`](Self::initial_body) keeps answering with them.
    /// Callers have done every check that can fail.
    fn changing(&mut self, i: usize) -> &mut [u8] {
        let e = &mut self.entries[i];
        let (at, end) = (e.at, e.at + e.len);
        if e.registered.is_none() {
            e.registered = Some(self.registered.len());
            self.registered.extend_from_slice(&self.bodies[at..end]);
        }
        &mut self.bodies[at..end]
    }

    /// Registers `id` with its initial contents. sdso-check: hot-path
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::AlreadyShared`] if `id` was registered before.
    pub fn share(&mut self, id: ObjectId, initial: Vec<u8>) -> Result<(), DsoError> {
        let i = match self.entries.last() {
            Some(last) if last.id >= id => {
                self.position(id).err().ok_or(DsoError::AlreadyShared(id))?
            }
            _ => self.entries.len(),
        };
        let entry = Entry {
            id,
            writer: Version::INITIAL.writer,
            time: Version::INITIAL.time,
            at: self.bodies.len(),
            len: initial.len(),
            registered: None,
        };
        self.bodies.extend_from_slice(&initial);
        self.entries.insert(i, entry);
        self.revision.mutations += 1;
        Ok(())
    }

    /// Looks up a replica.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] if `id` was never shared.
    pub fn replica(&self, id: ObjectId) -> Result<Replica<'_>, DsoError> {
        Ok(self.view(&self.entries[self.index(id)?]))
    }

    /// Reads an object's bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] if `id` was never shared.
    pub fn read(&self, id: ObjectId) -> Result<&[u8], DsoError> {
        Ok(self.replica(id)?.data())
    }

    /// Writes `bytes` at `offset`, stamping the replica with `version`.
    /// sdso-check: hot-path
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] or [`DsoError::OutOfBounds`].
    pub fn write(
        &mut self,
        id: ObjectId,
        offset: u32,
        bytes: &[u8],
        version: Version,
    ) -> Result<(), DsoError> {
        let i = self.index(id)?;
        let size = self.entries[i].len;
        let end = offset as usize + bytes.len();
        if end > size {
            return Err(DsoError::OutOfBounds { object: id, offset, len: bytes.len(), size });
        }
        self.changing(i)[offset as usize..end].copy_from_slice(bytes);
        let e = &mut self.entries[i];
        e.stamp(e.version().max(version));
        self.revision.mutations += 1;
        Ok(())
    }

    /// Replaces an object's entire contents (used by pull-based protocols
    /// that ship whole bodies rather than diffs). sdso-check: hot-path
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`], or [`DsoError::OutOfBounds`] if
    /// the body size does not match the registered size.
    pub fn replace(&mut self, id: ObjectId, body: &[u8], version: Version) -> Result<(), DsoError> {
        let i = self.index(id)?;
        let size = self.entries[i].len;
        if body.len() != size {
            return Err(DsoError::OutOfBounds { object: id, offset: 0, len: body.len(), size });
        }
        self.changing(i).copy_from_slice(body);
        self.entries[i].stamp(version);
        self.revision.mutations += 1;
        Ok(())
    }

    /// Replaces an object's contents only if `version` is newer than the
    /// replica's current version, returning whether it was applied.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`], or [`DsoError::OutOfBounds`] if
    /// the body size does not match the registered size.
    pub fn replace_if_newer(
        &mut self,
        id: ObjectId,
        body: &[u8],
        version: Version,
    ) -> Result<bool, DsoError> {
        let current = self.replica(id)?.version();
        if version <= current {
            return Ok(false);
        }
        self.replace(id, body, version)?;
        Ok(true)
    }

    /// Applies a remote diff stamped `version` if (and only if) it is newer
    /// than the replica's version, returning whether it was applied.
    /// sdso-check: hot-path
    ///
    /// This is the convergence rule: each object's replicas resolve
    /// same-interval concurrent writes by last-writer-wins on
    /// [`Version`]'s total order, deterministically on every process.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`], or a codec error if the diff
    /// exceeds the object's bounds.
    pub fn apply_remote(
        &mut self,
        id: ObjectId,
        diff: &Diff,
        version: Version,
    ) -> Result<bool, DsoError> {
        let i = self.index(id)?;
        let e = &self.entries[i];
        if version <= e.version() {
            return Ok(false);
        }
        // Checked before `changing`, so a diff that does not fit copies
        // nothing aside.
        diff.check_fits(e.len).map_err(DsoError::Net)?;
        diff.apply(self.changing(i)).map_err(DsoError::Net)?;
        self.entries[i].stamp(version);
        self.revision.mutations += 1;
        Ok(true)
    }

    /// Number of shared objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no objects are shared.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(id, replica)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, Replica<'_>)> {
        self.entries.iter().map(|e| (e.id, self.view(e)))
    }

    /// The bytes `id` was registered with, or `None` if it was never
    /// shared. See [`Replica::initial_body`].
    pub fn initial_body(&self, id: ObjectId) -> Option<&[u8]> {
        self.replica(id).ok().map(|r| r.initial_body())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalTime;

    fn v(t: u64, w: u16) -> Version {
        Version::new(LogicalTime::from_ticks(t), w)
    }

    #[test]
    fn share_then_read_back() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![1, 2, 3]).unwrap();
        assert_eq!(s.read(ObjectId(1)).unwrap(), &[1, 2, 3]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn double_share_rejected() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![0]).unwrap();
        assert!(matches!(s.share(ObjectId(1), vec![0]), Err(DsoError::AlreadyShared(_))));
    }

    #[test]
    fn unknown_object_rejected_everywhere() {
        let mut s = ObjectStore::new();
        assert!(s.read(ObjectId(9)).is_err());
        assert!(s.write(ObjectId(9), 0, &[1], v(1, 0)).is_err());
        assert!(s.apply_remote(ObjectId(9), &Diff::empty(), v(1, 0)).is_err());
    }

    #[test]
    fn write_bounds_checked() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![0; 4]).unwrap();
        assert!(matches!(
            s.write(ObjectId(1), 2, &[1, 2, 3], v(1, 0)),
            Err(DsoError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn apply_remote_respects_version_order() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![0; 4]).unwrap();
        let newer = Diff::single(0, vec![9; 4]);
        assert!(s.apply_remote(ObjectId(1), &newer, v(2, 1)).unwrap());
        assert_eq!(s.read(ObjectId(1)).unwrap(), &[9; 4]);

        // An older write must be discarded.
        let older = Diff::single(0, vec![7; 4]);
        assert!(!s.apply_remote(ObjectId(1), &older, v(1, 0)).unwrap());
        assert_eq!(s.read(ObjectId(1)).unwrap(), &[9; 4]);

        // Same tick, higher writer id wins.
        let tie = Diff::single(0, vec![5; 4]);
        assert!(s.apply_remote(ObjectId(1), &tie, v(2, 3)).unwrap());
        assert_eq!(s.read(ObjectId(1)).unwrap(), &[5; 4]);
    }

    #[test]
    fn replace_requires_matching_size() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![0; 4]).unwrap();
        assert!(s.replace(ObjectId(1), &[1; 3], v(1, 0)).is_err());
        s.replace(ObjectId(1), &[1; 4], v(1, 0)).unwrap();
        assert_eq!(s.replica(ObjectId(1)).unwrap().version(), v(1, 0));
    }

    #[test]
    fn initial_body_survives_writes() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![7; 4]).unwrap();
        s.write(ObjectId(1), 0, &[1, 2], v(1, 0)).unwrap();
        assert_eq!(s.initial_body(ObjectId(1)).unwrap(), &[7; 4]);
        assert_eq!(s.read(ObjectId(1)).unwrap(), &[1, 2, 7, 7]);
        assert!(s.initial_body(ObjectId(9)).is_none());
    }

    #[test]
    fn local_write_bumps_version_monotonically() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![0; 4]).unwrap();
        s.write(ObjectId(1), 0, &[1], v(5, 2)).unwrap();
        // A later write with an *older* stamp must not roll the version back.
        s.write(ObjectId(1), 1, &[1], v(3, 1)).unwrap();
        assert_eq!(s.replica(ObjectId(1)).unwrap().version(), v(5, 2));
    }
}

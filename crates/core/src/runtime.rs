use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sdso_member::{leave_change_from_events, Epoch, MembershipView, ViewChange};
use sdso_net::{Endpoint, MsgClass, NetError, NodeId, Payload, PeerEvent, SimSpan};
use sdso_obs::{EventKind, Obs};

use crate::clock::{LogicalClock, LogicalTime};
use crate::codec::{self, ShadowState, CODEC_V2};
use crate::config::{DsoConfig, RetryConfig};
use crate::diff::Diff;
use crate::error::DsoError;
use crate::exchange_list::ExchangeList;
use crate::metrics::{DsoCounters, DsoMetrics};
use crate::object::{ObjectId, Version};
use crate::router::DiffRouter;
use crate::sfunction::SFunction;
use crate::slotted_buffer::SlottedBuffer;
use crate::store::ObjectStore;
use crate::wire::{DsoMessage, WireUpdate};

/// How `exchange` chooses its recipients (the paper's `send_t how`
/// argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Exchange with the subset of peers the exchange list says are due —
    /// normal operation.
    Multicast,
    /// Force an immediate flush to every remote process, overriding the
    /// exchange list.
    Broadcast,
}

/// What one `exchange` call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeReport {
    /// The logical time of this exchange (post-tick).
    pub time: LogicalTime,
    /// The peers exchanged with.
    pub peers: Vec<NodeId>,
    /// Updates shipped to those peers (after merging).
    pub updates_sent: usize,
    /// Remote updates applied locally during the rendezvous.
    pub updates_applied: usize,
}

/// An event surfaced to code layered above the runtime by the message pump
/// (`Put`/`GetReq` traffic is serviced internally and never surfaces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// An [`DsoMessage::App`] message from a peer protocol layer.
    App {
        /// Sender.
        from: NodeId,
        /// Accounting class the sender declared.
        class: MsgClass,
        /// The embedded encoding.
        bytes: Vec<u8>,
    },
    /// A `GetRep` arrived (and was already applied if newer).
    GetRep {
        /// Replier.
        from: NodeId,
        /// The object it carried.
        object: ObjectId,
    },
    /// An acknowledgement of an earlier `sync_put`.
    Ack {
        /// Acknowledging peer.
        from: NodeId,
    },
}

#[derive(Debug, Default)]
struct EarlyEntry {
    updates: Vec<WireUpdate>,
    sync: bool,
}

/// Per-link ARQ state of the optional reliability layer: sequenced
/// envelopes, cumulative acks, retransmit-on-timeout. Gives in-order
/// exactly-once delivery over transports that drop, duplicate, or reorder.
#[derive(Debug)]
struct ArqState {
    cfg: RetryConfig,
    /// Next sequence number to assign, per destination.
    tx_seq: Vec<u64>,
    /// Sent but unacknowledged messages, per destination, by sequence.
    unacked: Vec<BTreeMap<u64, DsoMessage>>,
    /// Next sequence number expected, per source.
    rx_next: Vec<u64>,
    /// Out-of-order arrivals waiting for their predecessors, per source.
    ooo: Vec<BTreeMap<u64, DsoMessage>>,
}

impl ArqState {
    fn new(cfg: RetryConfig, n: usize) -> Self {
        ArqState {
            cfg,
            tx_seq: vec![0; n],
            unacked: (0..n).map(|_| BTreeMap::new()).collect(),
            rx_next: vec![0; n],
            ooo: (0..n).map(|_| BTreeMap::new()).collect(),
        }
    }

    /// Resets the per-link state for a departed peer: its unacked traffic
    /// is undeliverable, its out-of-order residue must not poison a future
    /// occupant of the slot, and sequencing restarts from zero if the slot
    /// is ever reused by a joiner.
    fn forget_peer(&mut self, peer: NodeId) {
        let p = usize::from(peer);
        self.tx_seq[p] = 0;
        self.unacked[p].clear();
        self.rx_next[p] = 0;
        self.ooo[p].clear();
    }
}

/// Per-link wire-codec state, present iff [`crate::WireConfig::codec_v2`]
/// is on: what the peer has negotiated, and the XOR shadows both
/// directions of the link evolve in lockstep (see [`crate::codec`]).
#[derive(Debug, Default)]
struct LinkCodec {
    /// Highest codec version the peer has offered; `None` until its
    /// [`DsoMessage::CodecOffer`] arrives — sends stay v1 until then.
    peer_version: Option<u8>,
    /// Whether this process's own offer has gone out on the link.
    offered: bool,
    /// Sender-side shadows for the `Data2` batches this process emits.
    tx: ShadowState,
    /// Receiver-side shadows for the `Data2` batches the peer emits.
    rx: ShadowState,
}

/// The S-DSO runtime: one per process.
///
/// Owns the process's object replicas, logical clock, exchange list and
/// slotted buffer, and implements the paper's library interface — `share`,
/// `async_put`, `sync_put`, `async_get`, `sync_get` and, centrally,
/// [`SdsoRuntime::exchange`] (Fig. 4).
///
/// The runtime is transport-generic: `E` may be the in-process transport,
/// the TCP mesh, or the virtual-time simulator endpoint.
#[derive(Debug)]
pub struct SdsoRuntime<E: Endpoint> {
    endpoint: E,
    config: DsoConfig,
    store: ObjectStore,
    clock: LogicalClock,
    exchange_list: ExchangeList,
    buffer: SlottedBuffer,
    /// Local modifications since the last `exchange`, per object, with the
    /// Lamport stamp of the newest write folded in.
    current_mods: BTreeMap<ObjectId, (Diff, Version)>,
    /// Lamport clock for version stamps. Distinct from the logical
    /// (rendezvous-tick) clock: ticks count exchanges and are *not*
    /// comparable across processes, while version stamps must order
    /// causally-related writes of different processes — otherwise a
    /// slow-ticking process's fresh write would lose last-writer-wins
    /// against a fast process's stale one.
    lamport: u64,
    /// Rendezvous messages stamped in the logical future, buffered per
    /// (peer, time) until this process's clock reaches them.
    early: BTreeMap<(NodeId, LogicalTime), EarlyEntry>,
    /// Logical messages delivered by the admission layer but not yet
    /// consumed, in per-link FIFO order. One received frame can deliver
    /// several: the out-of-order successors an ARQ frame unblocks, and the
    /// SYNC half of a fused `Data2`. Every receive path pops from here
    /// before it touches the transport.
    ready: VecDeque<(NodeId, DsoMessage)>,
    /// App messages received while waiting for something else.
    app_inbox: VecDeque<(NodeId, MsgClass, Vec<u8>)>,
    /// `sync_put` acknowledgements received so far.
    acks_received: u64,
    /// Reliability layer state, present iff `config.reliability` is set.
    arq: Option<ArqState>,
    /// Per-link wire-codec negotiation and shadow state, present iff
    /// `config.wire.codec_v2` is set.
    codec: Option<Vec<LinkCodec>>,
    /// The membership view every exchange is computed under. Starts as the
    /// full static group (the paper's fixed cluster); churn-aware drivers
    /// install an explicit initial view and advance it at view-change
    /// barriers.
    view: MembershipView,
    /// Interest router consulted by live multicast exchanges, when one is
    /// installed (see [`crate::DiffRouter`]). Broadcast exchanges ignore
    /// it, so barriers and the terminal sync always flush every slot.
    router: Option<Box<dyn DiffRouter>>,
    /// This node's observability bundle (recorder + registry).
    obs: Obs,
    /// Live `dso.*` counters in the bundle's registry.
    counters: DsoCounters,
}

impl<E: Endpoint> SdsoRuntime<E> {
    /// Wraps a transport endpoint into an S-DSO runtime with observability
    /// disabled (counters still work; no events are traced).
    pub fn new(endpoint: E, config: DsoConfig) -> Self {
        SdsoRuntime::with_obs(endpoint, config, Obs::disabled())
    }

    /// Wraps a transport endpoint into an S-DSO runtime recording into
    /// `obs`: the runtime's counters register in the bundle's registry and
    /// its flight recorder is attached to the endpoint, so transport-level
    /// send/recv events land in the same per-node ring as the runtime's
    /// exchange and rendezvous events.
    pub fn with_obs(mut endpoint: E, config: DsoConfig, obs: Obs) -> Self {
        let me = endpoint.node_id();
        let n = endpoint.num_nodes();
        endpoint.attach_recorder(obs.recorder().clone());
        // Reset the delta baseline so net_metrics_delta covers this
        // runtime's lifetime even when the endpoint saw earlier traffic.
        let _ = endpoint.metrics_delta();
        let counters = DsoCounters::in_registry(obs.registry());
        SdsoRuntime {
            endpoint,
            config,
            store: ObjectStore::new(),
            clock: LogicalClock::new(),
            exchange_list: ExchangeList::new(),
            buffer: SlottedBuffer::new(n, me, config.merge_diffs),
            current_mods: BTreeMap::new(),
            lamport: 0,
            early: BTreeMap::new(),
            ready: VecDeque::new(),
            app_inbox: VecDeque::new(),
            acks_received: 0,
            arq: config.reliability.map(|cfg| ArqState::new(cfg, n)),
            codec: config.wire.codec_v2.then(|| (0..n).map(|_| LinkCodec::default()).collect()),
            view: MembershipView::full(n),
            router: None,
            obs,
            counters,
        }
    }

    /// This process's node id.
    pub fn node_id(&self) -> NodeId {
        self.endpoint.node_id()
    }

    /// Cluster size.
    pub fn num_nodes(&self) -> usize {
        self.endpoint.num_nodes()
    }

    /// The logical clock's current time.
    pub fn logical_now(&self) -> LogicalTime {
        self.clock.now()
    }

    /// The Lamport clock's current value (the write-stamp frontier).
    pub fn lamport(&self) -> u64 {
        self.lamport
    }

    /// The transport clock (virtual or wall time).
    pub fn now(&self) -> sdso_net::SimInstant {
        self.endpoint.now()
    }

    /// Models `dt` of local computation (no-op on real transports).
    pub fn advance(&mut self, dt: SimSpan) {
        self.endpoint.advance(dt);
    }

    /// Runtime-level counters (a by-value view over the live `dso.*`
    /// registry counters).
    pub fn metrics(&self) -> DsoMetrics {
        self.counters.view()
    }

    /// Transport-level counters, cumulative for the endpoint's lifetime.
    pub fn net_metrics(&self) -> sdso_net::NetMetricsSnapshot {
        self.endpoint.metrics()
    }

    /// Transport-level counters since the previous delta read (correct for
    /// per-run accounting over a reused transport).
    pub fn net_metrics_delta(&mut self) -> sdso_net::NetMetricsSnapshot {
        self.endpoint.metrics_delta()
    }

    /// This runtime's observability bundle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Direct access to the transport (for protocol layers that manage
    /// their own timing instrumentation).
    pub fn endpoint_mut(&mut self) -> &mut E {
        &mut self.endpoint
    }

    /// Consumes the runtime, returning the transport. A crash-simulating
    /// driver keeps the endpoint's identity (and its virtual clock) across
    /// a restart while every piece of volatile protocol state — clocks,
    /// buffers, reliability windows — is dropped on the floor, exactly as
    /// a process crash would.
    pub fn into_endpoint(self) -> E {
        self.endpoint
    }

    /// Restores the logical-time and Lamport frontiers a restarted process
    /// recovered from stable storage (snapshot + WAL replay), before it
    /// rejoins the group. Both clocks only move forward, so restoring is
    /// idempotent against fresher in-memory state.
    pub fn restore_frontier(&mut self, time: LogicalTime, lamport: u64) {
        self.clock.advance_to(time);
        self.lamport = self.lamport.max(lamport);
    }

    /// Discards crash-era residue sitting in this endpoint's receive
    /// queue, admitting anything already stamped for the current view.
    ///
    /// A restarted process reuses its pre-crash endpoint (a rebooted host
    /// keeps its address), so frames addressed to the dead incarnation —
    /// barrier duplicates, leaver-settling retransmits, acks for sends
    /// that died with it — are still queued when recovery completes. On a
    /// fresh reliability layer their stale sequence numbers would squat in
    /// the out-of-order buffer and shadow live frames at colliding
    /// sequence numbers, so they must never reach the admit path: any
    /// sequenced frame stamped before this view's epoch is dropped
    /// unacked (the sender reset that link when it pruned the crashed
    /// member), and any ack is dropped too (this incarnation has sent
    /// nothing an ack could cover). Fresh traffic that overtook the drain
    /// — a snapshot, or early rendezvous frames from peers already past
    /// the rejoin barrier — is admitted through the regular reliability
    /// path and queued for the next blocking receive.
    ///
    /// Call after [`SdsoRuntime::set_membership`] with the rejoin view and
    /// before [`SdsoRuntime::await_snapshot`]. Without a reliability layer
    /// there is no sequence state to protect (the epoch checks already
    /// drop stale traffic on delivery) and this is a no-op. Returns the
    /// number of residue frames dropped.
    ///
    /// # Errors
    ///
    /// Returns transport and codec errors.
    pub fn drain_crash_residue(&mut self) -> Result<u64, DsoError> {
        if self.arq.is_none() {
            return Ok(0);
        }
        let mut dropped = 0u64;
        while let Some(incoming) = self.endpoint.try_recv().map_err(DsoError::Net)? {
            let msg: DsoMessage =
                sdso_net::wire::decode(&incoming.payload.bytes).map_err(DsoError::Net)?;
            let stale = match &msg {
                DsoMessage::SeqAck { .. } => true,
                other => other.epoch().is_some_and(|e| e < self.view.epoch()),
            };
            if stale {
                dropped += 1;
                self.counters.cross_epoch_dropped.inc();
                reclaim_incoming(incoming.payload);
                continue;
            }
            // Deliverable already: admission parks it in `ready`, where
            // the blocking receives look first.
            self.admit(incoming)?;
        }
        Ok(dropped)
    }

    /// The exchange list (for inspection by tests and protocol layers).
    pub fn exchange_list(&self) -> &ExchangeList {
        &self.exchange_list
    }

    /// Installs (or, with `None`, removes) the interest router consulted
    /// by live multicast exchanges. Pending updates the router suppresses
    /// stay buffered (merged) in the destination's slot and flush at the
    /// next broadcast exchange, so convergence is unaffected — only live
    /// traffic shrinks to the interest set.
    pub fn set_diff_router(&mut self, router: Option<Box<dyn DiffRouter>>) {
        self.router = router;
    }

    // ------------------------------------------------------------------
    // Membership (epoch-scoped views, view-change barriers, snapshots)
    // ------------------------------------------------------------------

    /// The membership view exchanges are currently computed under.
    pub fn membership(&self) -> &MembershipView {
        &self.view
    }

    /// The current membership epoch (stamped on all rendezvous traffic).
    pub fn epoch(&self) -> Epoch {
        self.view.epoch()
    }

    /// Installs an explicit membership view, reconciling the slotted
    /// buffer so exactly the view's remote members have active slots.
    /// Called once at startup by churn-aware drivers: initial members
    /// install the plan's initial view; a late joiner installs the view of
    /// the epoch it joins in (then obtains state via
    /// [`SdsoRuntime::await_snapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if the view's capacity differs from the transport's node
    /// count, or if this process is not a member of the view.
    pub fn set_membership(&mut self, view: MembershipView) {
        assert_eq!(
            view.capacity(),
            self.num_nodes(),
            "membership capacity must match the transport"
        );
        assert!(view.contains(self.node_id()), "set_membership: local process not in view");
        self.view = view;
        self.reconcile_buffer_slots();
    }

    /// Applies one view change at a barrier: prunes departed peers from
    /// every data structure (exchange list, slotted buffer, reliability
    /// links, early-arrival buffer, transport), bumps the epoch, activates
    /// slots for joiners and asks the s-function for their first exchange
    /// times, and fires the s-function's membership-delta hook.
    ///
    /// Call this after the barrier exchange of the trigger tick has
    /// completed (every old-view member has flushed and converged) — the
    /// paper's static assumption holds within each epoch, and this method
    /// is the only transition between epochs.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::ProtocolViolation`] if the change is invalid
    /// against the current view, or if the s-function schedules a
    /// non-future first exchange for a joiner.
    pub fn apply_view_change(
        &mut self,
        change: &ViewChange,
        sfunc: &mut dyn SFunction,
    ) -> Result<(), DsoError> {
        let now = self.clock.now();
        // Validate against an unmodified view before touching anything.
        let mut next_view = self.view.clone();
        next_view
            .apply(change)
            .map_err(|e| DsoError::ProtocolViolation(format!("invalid view change: {e}")))?;

        // A continuer may still hold unacknowledged barrier frames for a
        // leaver (every copy lost in flight). Forgetting them below would
        // strand the leaver in its barrier with nobody left to retransmit,
        // so drain each departing link first, while the leaver is still a
        // member and acks flow normally.
        if self.arq.is_some() {
            for &leaver in &change.left {
                if leaver != self.node_id() {
                    self.settle_link(leaver)?;
                }
            }
        }
        for &leaver in &change.left {
            self.exchange_list.remove(leaver);
            if self.buffer.has_peer(leaver) {
                let orphaned = self.buffer.remove_peer(leaver);
                self.counters.slots_compacted.add(orphaned.len() as u64);
            }
            if let Some(arq) = &mut self.arq {
                arq.forget_peer(leaver);
            }
            self.ready.retain(|(from, _)| *from != leaver);
            self.reset_link_codec(leaver);
            self.early.retain(|&(peer, _), _| peer != leaver);
            self.endpoint.remove_peer(leaver);
        }
        self.view = next_view;
        for &joiner in &change.joined {
            if joiner == self.node_id() {
                continue;
            }
            self.endpoint.add_peer(joiner);
            if !self.buffer.has_peer(joiner) {
                self.buffer.add_peer(joiner);
            }
            if let Some(t) = sfunc.next_exchange(joiner, now, &self.store) {
                if t <= now {
                    return Err(DsoError::ProtocolViolation(
                        "s-function scheduled a non-future exchange for a joiner".into(),
                    ));
                }
                self.exchange_list.schedule(joiner, t);
            }
        }
        let joined: Vec<NodeId> = change.joined.iter().copied().collect();
        let left: Vec<NodeId> = change.left.iter().copied().collect();
        sfunc.on_view_change(&joined, &left);
        if let Some(router) = &mut self.router {
            router.on_view_change(&joined, &left);
        }
        self.counters.view_changes.inc();
        self.obs.record(
            self.endpoint.now().as_micros(),
            EventKind::ViewChange,
            self.view.epoch().0,
            joined.len() as u32,
            left.len() as u32,
        );
        Ok(())
    }

    /// Drains the transport's queued link events and folds them into the
    /// leave-side [`ViewChange`] they imply under the current view: peers
    /// whose link ended the drain down (the reactor's graceful teardown
    /// after a lost connection, or `TcpMesh` exhausting its reconnect
    /// budget) become leavers; reconnect flaps cancel out. Returns `None`
    /// when no live member departed.
    ///
    /// This is a *proposal*, not an applied change: the caller decides when
    /// the barrier happens and feeds the change to
    /// [`SdsoRuntime::apply_view_change`] — typically after the tick's
    /// exchange completes, so every surviving member applies the same
    /// change at the same logical time.
    pub fn drain_departures(&mut self) -> Option<ViewChange> {
        let events = self.endpoint.take_peer_events();
        // Any link flap invalidates codec negotiation with that peer: a
        // reconnected peer may have restarted, losing its XOR shadows and
        // its knowledge of our version offer. Downgrade to v1 and
        // re-negotiate — even when the flap cancels out of the membership
        // change below. The receive direction is deliberately left alive:
        // frames encoded before the flap may still be in flight or be
        // retransmitted, and must decode against the shadows they were
        // built on.
        for event in &events {
            let (PeerEvent::Down(peer) | PeerEvent::Up(peer)) = *event;
            self.downgrade_link_codec(peer);
        }
        let change = leave_change_from_events(&self.view, &events);
        if change.is_empty() {
            None
        } else {
            Some(change)
        }
    }

    /// Pushes a state snapshot to a late joiner: every object modified
    /// since initialisation as a from-zero diff (the joiner shares the
    /// same initial bodies, so pristine objects need no transfer), plus
    /// this donor's logical-time and Lamport frontiers. O(objects) bytes,
    /// never O(history). Returns the encoded snapshot size in bytes.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn send_snapshot(&mut self, to: NodeId) -> Result<usize, DsoError> {
        let updates: Vec<WireUpdate> = self
            .store
            .iter()
            .filter(|(_, replica)| replica.version() != Version::INITIAL)
            .map(|(id, replica)| WireUpdate {
                object: id,
                diff: Diff::single(0, replica.data().to_vec()),
                version: replica.version(),
            })
            .collect();
        let msg = DsoMessage::Snapshot {
            epoch: self.view.epoch(),
            time: self.clock.now(),
            lamport: self.lamport,
            updates,
        };
        let bytes = sdso_net::wire::encode(&msg).len();
        self.counters.snapshots_sent.inc();
        self.counters.snapshot_bytes.add(bytes as u64);
        self.obs.record(
            self.endpoint.now().as_micros(),
            EventKind::SnapshotSend,
            u32::from(to),
            bytes as u32,
            self.view.epoch().0,
        );
        self.send_msg(to, msg)?;
        Ok(bytes)
    }

    /// Blocks until the designated donor's snapshot arrives, then installs
    /// it: object bodies apply under last-writer-wins, the logical clock
    /// jumps to the donor's frontier, and the Lamport clock folds in the
    /// donor's stamp. Rendezvous traffic from other members that overtakes
    /// the snapshot is early-buffered for the joiner's first exchanges;
    /// protocol traffic is queued or serviced as usual.
    ///
    /// Returns the installed snapshot's logical time.
    ///
    /// # Errors
    ///
    /// Returns transport errors, or [`DsoError::ProtocolViolation`] if the
    /// snapshot is stamped with a different epoch than this view's.
    pub fn await_snapshot(&mut self, donor: NodeId) -> Result<LogicalTime, DsoError> {
        loop {
            let (from, msg) = self.next_msg_wait()?;
            match msg {
                DsoMessage::Snapshot { epoch, time, lamport, updates } if from == donor => {
                    if epoch != self.view.epoch() {
                        return Err(DsoError::ProtocolViolation(format!(
                            "snapshot from {from} stamped {epoch}, joiner is at {}",
                            self.view.epoch()
                        )));
                    }
                    self.apply_updates(&updates)?;
                    self.lamport = self.lamport.max(lamport);
                    self.clock.advance_to(time);
                    self.counters.snapshots_installed.inc();
                    self.obs.record(
                        self.endpoint.now().as_micros(),
                        EventKind::SnapshotInstall,
                        u32::from(from),
                        updates.len() as u32,
                        epoch.0,
                    );
                    return Ok(time);
                }
                DsoMessage::Data { epoch, time, updates } if epoch >= self.view.epoch() => {
                    self.counters.early_buffered.inc();
                    self.early.entry((from, time)).or_default().updates.extend(updates);
                }
                DsoMessage::Sync { epoch, time } if epoch >= self.view.epoch() => {
                    self.counters.early_buffered.inc();
                    self.early.entry((from, time)).or_default().sync = true;
                }
                DsoMessage::Data { .. } | DsoMessage::Sync { .. } => {
                    self.counters.cross_epoch_dropped.inc();
                }
                other => {
                    if let Some(Event::App { from, class, bytes }) = self.dispatch(from, other)? {
                        self.app_inbox.push_back((from, class, bytes));
                    }
                }
            }
        }
    }

    /// Deactivates slotted-buffer slots for non-members and activates
    /// slots for members, so buffered diffs accumulate for exactly the
    /// current view's remote peers.
    fn reconcile_buffer_slots(&mut self) {
        let me = self.node_id();
        for peer in 0..self.num_nodes() as NodeId {
            if peer == me {
                continue;
            }
            match (self.view.contains(peer), self.buffer.has_peer(peer)) {
                (false, true) => {
                    let orphaned = self.buffer.remove_peer(peer);
                    self.counters.slots_compacted.add(orphaned.len() as u64);
                }
                (true, false) => self.buffer.add_peer(peer),
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Object registration and local access
    // ------------------------------------------------------------------

    /// Registers a shared object with its initial contents. All processes
    /// must register the same objects with identical contents during program
    /// initialisation (S-DSO declares everything shared once, up front; it
    /// has no `unshare`).
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::AlreadyShared`] on duplicate registration.
    pub fn share(&mut self, id: ObjectId, initial: Vec<u8>) -> Result<(), DsoError> {
        self.store.share(id, initial)
    }

    /// Reads an object's local replica.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] if `id` was never shared.
    pub fn read(&self, id: ObjectId) -> Result<&[u8], DsoError> {
        let replica = self.store.replica(id)?;
        self.obs.record(
            self.endpoint.now().as_micros(),
            EventKind::ObjectRead,
            id.0,
            replica.version().time.as_ticks() as u32,
            0,
        );
        Ok(replica.data())
    }

    /// An object's current version stamp.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] if `id` was never shared.
    pub fn version_of(&self, id: ObjectId) -> Result<Version, DsoError> {
        Ok(self.store.replica(id)?.version())
    }

    /// Every shared object's id, in ascending order.
    pub fn object_ids(&self) -> Vec<ObjectId> {
        self.store.iter().map(|(id, _)| id).collect()
    }

    /// Writes `bytes` at `offset` into the local replica and records the
    /// change for distribution at the next `exchange`.
    ///
    /// The write is stamped with this process's Lamport clock (advanced by
    /// one), so causally later writes always win last-writer-wins at every
    /// replica regardless of how far the processes' rendezvous-tick clocks
    /// have drifted apart.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] or [`DsoError::OutOfBounds`].
    pub fn write(&mut self, id: ObjectId, offset: u32, bytes: &[u8]) -> Result<(), DsoError> {
        self.lamport += 1;
        let stamp = Version::new(LogicalTime::from_ticks(self.lamport), self.node_id());
        self.store.write(id, offset, bytes, stamp)?;
        let diff = Diff::single(offset, bytes.to_vec());
        let merging = self.current_mods.contains_key(&id);
        let entry = self.current_mods.entry(id).or_insert_with(|| (Diff::empty(), stamp));
        entry.0.merge_in_place(&diff);
        entry.1 = entry.1.max(stamp);
        if merging {
            self.obs.record(self.endpoint.now().as_micros(), EventKind::DiffMerge, id.0, 0, 0);
        }
        self.obs.record(
            self.endpoint.now().as_micros(),
            EventKind::ObjectWrite,
            id.0,
            stamp.time.as_ticks() as u32,
            bytes.len() as u32,
        );
        Ok(())
    }

    /// Applies a remote diff if (and only if) `version` is newer than the
    /// replica's current stamp, folding the stamp into this process's
    /// Lamport clock. Returns whether the diff was applied.
    ///
    /// Protocol layers that transport updates themselves (LRC intervals,
    /// causal pushes) must use this — not [`SdsoRuntime::write_local`] —
    /// for *remote* writes, so concurrent writes to one object resolve by
    /// the same last-writer-wins order on every replica.
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
        self.lamport = self.lamport.max(version.time.as_ticks());
        self.store.apply_remote(id, diff, version)
    }

    /// Writes `bytes` at `offset` with an explicit version stamp, *without*
    /// recording the change for exchange distribution.
    ///
    /// Pull-based protocols (entry consistency) use this: their updates
    /// propagate via `sync_get` pulls guarded by locks, so feeding the
    /// slotted buffer would both leak memory and double-ship state.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] or [`DsoError::OutOfBounds`].
    pub fn write_local(
        &mut self,
        id: ObjectId,
        offset: u32,
        bytes: &[u8],
        version: Version,
    ) -> Result<(), DsoError> {
        self.store.write(id, offset, bytes, version)
    }

    // ------------------------------------------------------------------
    // The exchange engine (paper Fig. 4)
    // ------------------------------------------------------------------

    /// Seeds the exchange list by asking the s-function for an initial
    /// exchange time for every remote peer in the current membership view
    /// (called once after `share`s). The schedule is seeded from the
    /// logical clock's current time — zero at program initialisation, or a
    /// late joiner's snapshot frontier.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::ProtocolViolation`] if the s-function schedules a
    /// non-future time.
    pub fn init_schedule(&mut self, sfunc: &mut dyn SFunction) -> Result<(), DsoError> {
        let me = self.node_id();
        let now = self.clock.now();
        for peer in self.view.peers_of(me) {
            if let Some(t) = sfunc.next_exchange(peer, now, &self.store) {
                if t <= now {
                    return Err(DsoError::ProtocolViolation(
                        "s-function scheduled a non-future exchange".into(),
                    ));
                }
                self.exchange_list.schedule(peer, t);
            }
        }
        Ok(())
    }

    /// Performs one exchange: advances the logical clock, ships buffered
    /// and current-interval updates to the due peers, optionally blocks
    /// until those peers reciprocate (`resync`), and re-runs the s-function
    /// to reschedule them.
    ///
    /// `resync` selects one of two *cluster-wide* disciplines: either every
    /// process rendezvouses (`true`, the lookahead protocols) or every
    /// process pushes and opportunistically drains (`false`). The two must
    /// not be mixed against one peer — a pusher never replies with the
    /// stamped pair a resync-mode peer waits for, and the engine rejects
    /// the resulting logically-stale traffic loudly rather than hanging.
    ///
    /// This is the paper's
    /// `exchange(shared_obj, resync_flag, how, s_func, arg)`; the Rust
    /// API drops the first argument (the runtime already tracks every
    /// modified object) and carries `arg` inside the s-function closure.
    ///
    /// # Errors
    ///
    /// Returns transport errors, or [`DsoError::ProtocolViolation`] when a
    /// peer's rendezvous traffic contradicts the symmetric schedule (a
    /// message stamped in the logical past, a rendezvous from a peer that
    /// is not due, or a non-rendezvous message during the wait).
    pub fn exchange(
        &mut self,
        resync: bool,
        how: SendMode,
        sfunc: &mut dyn SFunction,
    ) -> Result<ExchangeReport, DsoError> {
        self.exchange_with_budget(resync, how, sfunc, None).map(|(report, _)| report)
    }

    /// [`SdsoRuntime::exchange`] with a bounded rendezvous wait: if the
    /// due peers have not all reciprocated within `budget`, the still-owed
    /// peers are declared unresponsive, the rendezvous completes without
    /// them, and their ids are returned alongside the report.
    ///
    /// This is the crash-detection half of the MSYNC fix: the unbounded
    /// rendezvous parks forever on a vanished peer, while the reliability
    /// layer's retry budget is the wrong tool (it trips on *network*
    /// silence, not on one peer's). The caller — normally a crash-aware
    /// protocol layer — escalates a non-empty unresponsive set to the
    /// membership layer as an abrupt leave rather than stalling the group.
    ///
    /// # Errors
    ///
    /// Exactly [`SdsoRuntime::exchange`]'s errors; budget exhaustion is a
    /// report, not an error.
    pub fn exchange_bounded(
        &mut self,
        resync: bool,
        how: SendMode,
        sfunc: &mut dyn SFunction,
        budget: SimSpan,
    ) -> Result<(ExchangeReport, Vec<NodeId>), DsoError> {
        self.exchange_with_budget(resync, how, sfunc, Some(budget))
    }

    fn exchange_with_budget(
        &mut self,
        resync: bool,
        how: SendMode,
        sfunc: &mut dyn SFunction,
        budget: Option<SimSpan>,
    ) -> Result<(ExchangeReport, Vec<NodeId>), DsoError> {
        let started = self.endpoint.now();
        let t = self.clock.tick();
        let me = self.node_id();

        let due: Vec<NodeId> = match how {
            SendMode::Broadcast => self.view.peers_of(me),
            SendMode::Multicast => self.exchange_list.due(t),
        };
        self.obs.record(
            started.as_micros(),
            EventKind::ExchangeBegin,
            t.as_ticks() as u32,
            due.len() as u32,
            0,
        );

        // An installed interest router filters *live* multicast traffic
        // down to each peer's interest set; broadcast exchanges (epoch
        // barriers, the terminal sync) always flush everything, which is
        // what keeps routing a pure deferral rather than a loss.
        let route_live = matches!(how, SendMode::Multicast) && self.router.is_some();
        if route_live {
            if let Some(router) = &mut self.router {
                router.observe(&self.store, t);
            }
        }

        // Ship (data, SYNC) pairs to every due peer: its slot content plus
        // this interval's modifications (both interest-filtered when a
        // router is active). How many frames a pair takes is the codec
        // layer's business (`encode_data`).
        let current: Vec<(ObjectId, (Diff, Version))> =
            std::mem::take(&mut self.current_mods).into_iter().collect();
        let mut updates_sent = 0usize;
        let mut suppressed = 0u64;
        for &peer in &due {
            let mut updates: Vec<WireUpdate> = {
                let buffer = &mut self.buffer;
                match self.router.as_deref().filter(|_| route_live) {
                    Some(router) => buffer.drain_slot_filtered(peer, |o| router.routes(peer, o)),
                    None => buffer.drain_slot(peer),
                }
            }
            .into_iter()
            .map(|p| WireUpdate { object: p.object, diff: p.diff, version: p.version })
            .collect();
            if route_live {
                suppressed += self.buffer.slot_len(peer) as u64;
            }
            for (object, (diff, version)) in &current {
                match self.router.as_deref().filter(|_| route_live) {
                    Some(router) if !router.routes(peer, *object) => suppressed += 1,
                    _ => updates.push(WireUpdate {
                        object: *object,
                        diff: diff.clone(),
                        version: *version,
                    }),
                }
            }
            if self.config.wire.batch_dedup {
                self.dedup_updates(&mut updates);
            }
            updates_sent += updates.len();
            let epoch = self.view.epoch();
            let mut msgs = Vec::with_capacity(3);
            if self.codec_offer_due(peer) {
                msgs.push(self.codec_offer());
            }
            msgs.extend(self.encode_data(peer, epoch, t, updates));
            self.send_msgs(peer, msgs)?;
        }
        if suppressed > 0 {
            self.counters.shard_suppressed.add(suppressed);
        }

        // Buffer this interval's modifications for everyone not exchanged
        // with now — including due peers whose interest excluded an object,
        // so the next broadcast (or an interest-covered later exchange)
        // still delivers it.
        for (object, (diff, version)) in &current {
            match self.router.as_deref().filter(|_| route_live) {
                Some(router) => {
                    let recipients: Vec<NodeId> =
                        due.iter().copied().filter(|&p| router.routes(p, *object)).collect();
                    self.buffer.buffer_for_all(*object, diff, *version, &recipients);
                }
                None => self.buffer.buffer_for_all(*object, diff, *version, &due),
            }
        }
        let _ = me;

        let mut updates_applied = 0usize;
        let mut unresponsive = Vec::new();
        if resync && !due.is_empty() {
            (updates_applied, unresponsive) = self.await_rendezvous(t, &due, budget)?;
        } else if !resync {
            // Push mode never blocks, but it must still *drain*: peers'
            // pushed updates would otherwise accumulate unboundedly and
            // never be applied. Application is version-gated, so arrival
            // order does not matter.
            updates_applied = self.drain_pushed()?;
        }

        // Re-run the s-function for the peers just exchanged with.
        for &peer in &due {
            self.exchange_list.remove(peer);
            if let Some(next) = sfunc.next_exchange(peer, t, &self.store) {
                if next <= t {
                    return Err(DsoError::ProtocolViolation(
                        "s-function scheduled a non-future exchange".into(),
                    ));
                }
                self.exchange_list.schedule(peer, next);
            }
        }

        self.counters.exchanges.inc();
        self.counters.rendezvous_peers.add(due.len() as u64);
        self.counters.updates_sent.add(updates_sent as u64);
        let ended = self.endpoint.now();
        let elapsed = ended.saturating_since(started).as_micros();
        self.counters.exchange_time_micros.add(elapsed);
        self.counters.exchange_latency.observe(elapsed);
        self.obs.record(
            ended.as_micros(),
            EventKind::ExchangeEnd,
            t.as_ticks() as u32,
            updates_sent as u32,
            updates_applied as u32,
        );
        Ok((ExchangeReport { time: t, peers: due, updates_sent, updates_applied }, unresponsive))
    }

    /// Non-blocking drain used by push-mode exchanges: applies every
    /// already-arrived `Data` (last-writer-wins handles ordering) and
    /// discards `SYNC` markers (push mode has no rendezvous to complete).
    fn drain_pushed(&mut self) -> Result<usize, DsoError> {
        let mut applied = 0usize;
        while let Some((from, msg)) = self.next_msg_try()? {
            match msg {
                DsoMessage::Data { epoch, updates, .. } => {
                    if epoch < self.view.epoch() {
                        self.counters.cross_epoch_dropped.inc();
                    } else {
                        applied += self.apply_updates(&updates)?;
                    }
                }
                DsoMessage::Sync { .. } => {}
                DsoMessage::SnapshotReq { .. } => {
                    self.send_snapshot(from)?;
                }
                DsoMessage::Snapshot { .. } => {} // duplicate of an installed snapshot
                other => {
                    return Err(DsoError::ProtocolViolation(format!(
                        "unexpected {other:?} from {from} during push-mode drain"
                    )));
                }
            }
        }
        Ok(applied)
    }

    /// Blocks until every due peer's `(data, SYNC)` pair for tick `t` has
    /// arrived, applying updates as they come and buffering early traffic.
    ///
    /// With a `budget`, the whole wait is bounded: peers still owing their
    /// pair when the budget runs out are returned as unresponsive (second
    /// element) and the rendezvous completes without them.
    fn await_rendezvous(
        &mut self,
        t: LogicalTime,
        due: &[NodeId],
        budget: Option<SimSpan>,
    ) -> Result<(usize, Vec<NodeId>), DsoError> {
        let mut applied = 0usize;
        let mut outstanding: BTreeSet<NodeId> = due.iter().copied().collect();

        // Consume rendezvous traffic that arrived before we got here.
        for &peer in due {
            if let Some(entry) = self.early.remove(&(peer, t)) {
                applied += self.apply_updates(&entry.updates)?;
                if entry.sync {
                    outstanding.remove(&peer);
                }
            }
        }

        let wait_start = self.endpoint.now();
        let deadline = budget.map(|b| wait_start + b);
        let mut unresponsive: Vec<NodeId> = Vec::new();
        self.obs.record(
            wait_start.as_micros(),
            EventKind::RendezvousWaitBegin,
            t.as_ticks() as u32,
            outstanding.len() as u32,
            0,
        );
        while !outstanding.is_empty() {
            let (from, msg) = match deadline {
                None => self.next_msg_blocking()?,
                Some(d) => match self.next_msg_deadline(d)? {
                    Some(m) => m,
                    None => {
                        // Budget exhausted: whoever still owes a pair is
                        // declared unresponsive and the rendezvous closes
                        // without them. The caller escalates to the
                        // membership layer (or errors) — the engine itself
                        // must not invent a view change mid-exchange.
                        unresponsive = outstanding.iter().copied().collect();
                        break;
                    }
                },
            };
            // Cross-epoch traffic never errors the engine: residue from a
            // peer that has since left is dropped (and counted), traffic
            // from a peer that is an epoch ahead is buffered by its
            // logical time like any early arrival.
            if msg.epoch().is_some_and(|e| e < self.view.epoch()) {
                self.counters.cross_epoch_dropped.inc();
                continue;
            }
            match msg {
                DsoMessage::Data { time, updates, .. } => {
                    if time == t && due.contains(&from) {
                        applied += self.apply_updates(&updates)?;
                    } else if time > t {
                        self.counters.early_buffered.inc();
                        self.early.entry((from, time)).or_default().updates.extend(updates);
                    } else {
                        return Err(DsoError::ProtocolViolation(format!(
                            "data from {from} stamped {time} during rendezvous at {t}"
                        )));
                    }
                }
                DsoMessage::Sync { time, .. } => {
                    if time == t && outstanding.remove(&from) {
                        // Rendezvous with `from` complete.
                    } else if time > t {
                        self.counters.early_buffered.inc();
                        self.early.entry((from, time)).or_default().sync = true;
                    } else {
                        return Err(DsoError::ProtocolViolation(format!(
                            "SYNC from {from} stamped {time} during rendezvous at {t}"
                        )));
                    }
                }
                DsoMessage::SnapshotReq { .. } => {
                    self.send_snapshot(from)?;
                }
                DsoMessage::Snapshot { .. } => {} // duplicate of an installed snapshot
                other => {
                    return Err(DsoError::ProtocolViolation(format!(
                        "unexpected {other:?} from {from} during rendezvous at {t}"
                    )));
                }
            }
        }
        let wait_end = self.endpoint.now();
        let waited = wait_end.saturating_since(wait_start).as_micros();
        self.counters.exchange_wait_micros.add(waited);
        self.counters.wait_latency.observe(waited);
        self.obs.record(
            wait_end.as_micros(),
            EventKind::RendezvousWaitEnd,
            t.as_ticks() as u32,
            unresponsive.len() as u32,
            0,
        );
        Ok((applied, unresponsive))
    }

    fn apply_updates(&mut self, updates: &[WireUpdate]) -> Result<usize, DsoError> {
        let mut applied = 0usize;
        for u in updates {
            // Lamport receive rule: fold every observed stamp into the
            // local clock so later local writes causally dominate.
            self.lamport = self.lamport.max(u.version.time.as_ticks());
            if self.store.apply_remote(u.object, &u.diff, u.version)? {
                applied += 1;
                self.counters.updates_applied.inc();
            } else {
                self.counters.updates_stale.inc();
            }
        }
        Ok(applied)
    }

    // ------------------------------------------------------------------
    // The wire codec layer (version negotiation, compressed batches)
    // ------------------------------------------------------------------

    /// Coalesces same-object updates in an outgoing batch into one update
    /// each: diffs merged in shipping order (later bytes win overlaps,
    /// exactly as the receiver would have applied them one by one), the
    /// newest version stamp kept. Pure batch shrinkage — receivers see
    /// identical final state.
    fn dedup_updates(&mut self, updates: &mut Vec<WireUpdate>) {
        if updates.len() < 2 {
            return;
        }
        let mut slots: BTreeMap<ObjectId, usize> = BTreeMap::new();
        let mut merged: Vec<WireUpdate> = Vec::with_capacity(updates.len());
        let mut removed = 0u64;
        for u in updates.drain(..) {
            match slots.get(&u.object) {
                Some(&i) => {
                    let kept = &mut merged[i];
                    kept.diff.merge_in_place(&u.diff);
                    kept.version = kept.version.max(u.version);
                    removed += 1;
                }
                None => {
                    slots.insert(u.object, merged.len());
                    merged.push(u);
                }
            }
        }
        *updates = merged;
        if removed > 0 {
            self.counters.batch_deduped.add(removed);
        }
    }

    /// Whether this process still owes `peer` its codec offer; flips the
    /// flag when it does, because the caller is about to send one. Always
    /// `false` with compression off — no offer is ever owed, and peers
    /// keep encoding v1 toward us.
    fn codec_offer_due(&mut self, peer: NodeId) -> bool {
        match &mut self.codec {
            Some(links) => {
                let link = &mut links[usize::from(peer)];
                let due = !link.offered;
                link.offered = true;
                due
            }
            None => false,
        }
    }

    /// This process's codec offer, counted as it goes out.
    fn codec_offer(&mut self) -> DsoMessage {
        self.counters.codec_offers_sent.inc();
        DsoMessage::CodecOffer { version: CODEC_V2 }
    }

    /// Builds the frames of one exchange's `(data, SYNC)` pair toward
    /// `peer`: a single compressed `Data2` — which stands for the whole
    /// pair — when the peer has negotiated v2; the paper's two messages,
    /// absolute v1 `Data` then `Sync`, before negotiation completes or
    /// when v2 encoding falls back (a run exceeds the decoder's inflation
    /// budget, an XOR shadow cannot be seeded, or two consecutive update
    /// times lie more than an `i64` apart); and a bare `Sync` when there
    /// are no updates to ship.
    fn encode_data(
        &mut self,
        peer: NodeId,
        epoch: Epoch,
        time: LogicalTime,
        updates: Vec<WireUpdate>,
    ) -> Vec<DsoMessage> {
        let sync = DsoMessage::Sync { epoch, time };
        if updates.is_empty() {
            return vec![sync];
        }
        let me = self.node_id();
        if let Some(links) = &mut self.codec {
            let link = &mut links[usize::from(peer)];
            if link.peer_version.is_some_and(|v| v >= CODEC_V2) {
                let store = &self.store;
                let mut seed = |object: ObjectId| store.initial_body(object).map(<[u8]>::to_vec);
                if let Some((basis, blob)) = codec::encode_updates(
                    &updates,
                    me,
                    self.config.wire.xor_delta,
                    &mut link.tx,
                    &mut seed,
                ) {
                    self.counters.codec_v2_sent.inc();
                    return vec![DsoMessage::Data2 { epoch, time, basis, blob }];
                }
                self.counters.codec_v2_fallbacks.inc();
            }
        }
        vec![DsoMessage::Data { epoch, time, updates }, sync]
    }

    /// Resolves codec-layer messages at their exactly-once delivery point
    /// and queues the result on `ready`: consumes a
    /// [`DsoMessage::CodecOffer`] (recording the peer's version and
    /// replying with ours if it has not gone out yet), expands a
    /// [`DsoMessage::Data2`] into the plain `Data` it compresses
    /// (advancing this link's receive shadows) followed by the `Sync` it
    /// stands in for, and passes everything else through untouched. The
    /// exchange engine above therefore sees the same `(data, SYNC)` pair
    /// on every link, fused or not.
    fn deliver(&mut self, from: NodeId, msg: DsoMessage) -> Result<(), DsoError> {
        match msg {
            DsoMessage::CodecOffer { version } => self.handle_codec_offer(from, version)?,
            DsoMessage::Data2 { epoch, time, basis, blob } => {
                let updates = self.decode_data2(from, basis, &blob)?;
                self.ready.push_back((from, DsoMessage::Data { epoch, time, updates }));
                self.ready.push_back((from, DsoMessage::Sync { epoch, time }));
            }
            other => self.ready.push_back((from, other)),
        }
        Ok(())
    }

    /// Records a peer's codec offer. A *repeat* offer on an already
    /// negotiated link means the peer downgraded its side (link flap, or a
    /// restart without a view change) and no longer knows our version, so
    /// our own offer must cross again before the peer resumes v2 toward
    /// us. No storm: the repeat branch only fires when the sender's
    /// `peer_version` is freshly `None`, which absorbs our reply silently.
    fn handle_codec_offer(&mut self, from: NodeId, version: u8) -> Result<(), DsoError> {
        let Some(links) = &mut self.codec else {
            // Compression is off here: never offer back, so the peer keeps
            // encoding v1 toward us. Interop, not an error.
            return Ok(());
        };
        let link = &mut links[usize::from(from)];
        let repeat = link.peer_version.is_some();
        link.peer_version = Some(version);
        if repeat {
            link.offered = false;
        }
        if link.offered {
            return Ok(());
        }
        link.offered = true;
        let offer = self.codec_offer();
        self.send_msg(from, offer)
    }

    /// Decodes a `Data2` blob against this link's receive shadows.
    fn decode_data2(
        &mut self,
        from: NodeId,
        basis: u64,
        blob: &[u8],
    ) -> Result<Vec<WireUpdate>, DsoError> {
        let store = &self.store;
        let Some(links) = &mut self.codec else {
            return Err(DsoError::ProtocolViolation(format!(
                "compressed Data2 from {from} but codec v2 is not enabled here"
            )));
        };
        let link = &mut links[usize::from(from)];
        // Basis 0 announces the first batch of a fresh compressed stream:
        // the peer restarted its transmit shadows (after a link flap or a
        // process restart). Restart ours to match — a sender's basis only
        // returns to 0 by reset, never by wraparound.
        if basis == 0 && link.rx.basis() != 0 {
            link.rx.reset();
        }
        let mut seed = |object: ObjectId| store.initial_body(object).map(<[u8]>::to_vec);
        codec::decode_updates(blob, basis, from, &mut link.rx, &mut seed).map_err(DsoError::Net)
    }

    /// Forgets everything negotiated with `peer`: its version offer, ours,
    /// and both directions' XOR shadows. Called when the peer leaves the
    /// view — its link state is gone for good, and a joiner reusing the
    /// slot starts from a clean slate.
    fn reset_link_codec(&mut self, peer: NodeId) {
        if let Some(links) = &mut self.codec {
            links[usize::from(peer)] = LinkCodec::default();
        }
    }

    /// Downgrades the link after a reconnect flap: forget the negotiation
    /// (v1 until fresh offers cross) and restart our compressed stream
    /// from scratch, but keep the receive shadows — the peer's pre-flap
    /// frames, reliability-layer retransmits included, must still decode.
    /// If the peer really restarted, its first fresh `Data2` carries
    /// basis 0, which resets the receive side then (see `decode_data2`).
    fn downgrade_link_codec(&mut self, peer: NodeId) {
        if let Some(links) = &mut self.codec {
            let link = &mut links[usize::from(peer)];
            link.peer_version = None;
            link.offered = false;
            link.tx.reset();
        }
    }

    // ------------------------------------------------------------------
    // The reliability layer (sequencing, acks, retransmit-on-timeout)
    // ------------------------------------------------------------------

    /// Admits one received transport message (see
    /// [`SdsoRuntime::admit_raw`]) and hands its storage back to the pool.
    fn admit(&mut self, incoming: sdso_net::Incoming) -> Result<(), DsoError> {
        let admitted = self.admit_raw(incoming.from, &incoming.payload.bytes);
        reclaim_incoming(incoming.payload);
        admitted
    }

    /// Decodes one raw transport message and runs it through the
    /// reliability and codec layers, queueing every logical message this
    /// delivery produced on `ready`, in order. Without a reliability
    /// config, every message passes straight to the codec layer.
    fn admit_raw(&mut self, from: NodeId, bytes: &[u8]) -> Result<(), DsoError> {
        let msg: DsoMessage = sdso_net::wire::decode(bytes).map_err(DsoError::Net)?;
        // Residue from a departed member (sequenced traffic stamped with a
        // past epoch): pretend-ack it so the leaver's settle converges
        // promptly, but keep its content and sequencing out of the live
        // per-link state — a joiner reusing the slot starts from zero.
        if self.arq.is_some() && !self.view.contains(from) {
            if let DsoMessage::Env { seq, ref inner } = msg {
                if inner.epoch().is_some_and(|e| e < self.view.epoch()) {
                    self.counters.cross_epoch_dropped.inc();
                    self.send_msg(from, DsoMessage::SeqAck { next: seq + 1 })?;
                    return Ok(());
                }
            }
        }
        let Some(arq) = &mut self.arq else {
            return self.deliver(from, msg);
        };
        let p = usize::from(from);
        match msg {
            DsoMessage::Env { seq, inner } => {
                // In-order arrivals — this frame and any out-of-order
                // successors it unblocks — in delivery order. Codec
                // resolution happens below, after sequencing: this is the
                // exactly-once point the XOR shadows' lockstep relies on.
                let mut chain = Vec::new();
                if seq == arq.rx_next[p] {
                    arq.rx_next[p] += 1;
                    chain.push(*inner);
                    while let Some(next) = arq.ooo[p].remove(&arq.rx_next[p]) {
                        chain.push(next);
                        arq.rx_next[p] += 1;
                    }
                } else if seq > arq.rx_next[p] {
                    arq.ooo[p].entry(seq).or_insert(*inner);
                } else {
                    self.counters.duplicates_dropped.inc();
                }
                // Cumulative ack; doubles as a gap report when `seq` ran
                // ahead of `rx_next`. The sender may have exited between
                // emitting the frame and our ack (its frame sat in our rx
                // queue) — an ack nobody is left to consume is not owed.
                let ack = DsoMessage::SeqAck { next: arq.rx_next[p] };
                match self.send_msg(from, ack) {
                    Err(DsoError::Net(NetError::Disconnected)) => {}
                    other => other?,
                }
                // Everything resolved queues behind whatever `ready`
                // already holds, preserving per-link FIFO.
                for m in chain {
                    self.deliver(from, m)?;
                }
                Ok(())
            }
            DsoMessage::SeqAck { next } => {
                arq.unacked[p].retain(|&s, _| s >= next);
                Ok(())
            }
            // A plain message from a peer running without the layer (or a
            // legacy ack) is delivered as-is, codec resolution included.
            other => self.deliver(from, other),
        }
    }

    /// Blocking receive of the next logical message. With reliability
    /// enabled, waits are bounded by the retransmission timeout: each
    /// timeout resends everything unacknowledged (the `resync` path) until
    /// traffic flows again or the retry budget runs out.
    fn next_msg_blocking(&mut self) -> Result<(NodeId, DsoMessage), DsoError> {
        let Some(cfg) = self.arq.as_ref().map(|a| a.cfg) else {
            // No reliability layer: still admit through the codec layer so
            // offers are consumed and compressed batches resolve.
            return self.next_msg_wait();
        };
        let mut silent = 0u32;
        loop {
            if let Some(m) = self.ready.pop_front() {
                return Ok(m);
            }
            match self.endpoint.recv_deadline(cfg.rto).map_err(DsoError::Net)? {
                Some(incoming) => {
                    silent = 0;
                    self.admit(incoming)?;
                }
                None => {
                    if silent >= cfg.max_retries {
                        return Err(DsoError::Timeout { retries: silent });
                    }
                    silent += 1;
                    self.counters.resyncs.inc();
                    self.obs.record(
                        self.endpoint.now().as_micros(),
                        EventKind::Resync,
                        silent,
                        0,
                        0,
                    );
                    self.retransmit_unacked()?;
                }
            }
        }
    }

    /// Receive bounded by a wall/virtual-time `deadline` rather than the
    /// reliability layer's silent-round budget: used by bounded rendezvous
    /// waits, where "how long am I willing to wait" is the caller's
    /// decision, not the link layer's. With reliability enabled the wait
    /// is sliced at the retransmission timeout so unacked traffic keeps
    /// being resynced while the budget drains; `Ok(None)` means the
    /// deadline passed without a deliverable message.
    fn next_msg_deadline(
        &mut self,
        deadline: sdso_net::SimInstant,
    ) -> Result<Option<(NodeId, DsoMessage)>, DsoError> {
        let rto = self.arq.as_ref().map(|a| a.cfg.rto);
        loop {
            if let Some(m) = self.ready.pop_front() {
                return Ok(Some(m));
            }
            let remaining = deadline.saturating_since(self.endpoint.now());
            if remaining == SimSpan::ZERO {
                return Ok(None);
            }
            let slice = match rto {
                Some(rto) if rto < remaining => rto,
                _ => remaining,
            };
            match self.endpoint.recv_deadline(slice).map_err(DsoError::Net)? {
                Some(incoming) => self.admit(incoming)?,
                None => {
                    // A silent RTO slice: resync unacked traffic exactly
                    // like the unbounded path, but charge the caller's
                    // budget instead of a retry counter.
                    if rto.is_some() {
                        self.counters.resyncs.inc();
                        self.obs.record(
                            self.endpoint.now().as_micros(),
                            EventKind::Resync,
                            0,
                            0,
                            0,
                        );
                        self.retransmit_unacked()?;
                    }
                }
            }
        }
    }

    /// Blocking receive without the silent-round retry budget: for a
    /// joiner waiting to be admitted, where arbitrarily long silence is
    /// expected (its join barrier lies at a far-future trigger tick) and
    /// it holds no unacknowledged traffic whose recovery a timeout would
    /// drive. A genuine group failure parks this process in the
    /// transport and surfaces through the scheduler's stall detection
    /// instead of a spurious retry-budget error.
    fn next_msg_wait(&mut self) -> Result<(NodeId, DsoMessage), DsoError> {
        loop {
            if let Some(m) = self.ready.pop_front() {
                return Ok(m);
            }
            let incoming = self.endpoint.recv().map_err(DsoError::Net)?;
            self.admit(incoming)?;
        }
    }

    /// Non-blocking receive of the next logical message.
    fn next_msg_try(&mut self) -> Result<Option<(NodeId, DsoMessage)>, DsoError> {
        loop {
            if let Some(m) = self.ready.pop_front() {
                return Ok(Some(m));
            }
            match self.endpoint.try_recv().map_err(DsoError::Net)? {
                Some(incoming) => self.admit(incoming)?,
                None => return Ok(None),
            }
        }
    }

    /// Resends every unacknowledged message on every link, oldest first.
    fn retransmit_unacked(&mut self) -> Result<(), DsoError> {
        let Some(arq) = &self.arq else { return Ok(()) };
        let pending: Vec<(NodeId, u64, DsoMessage)> = arq
            .unacked
            .iter()
            .enumerate()
            .filter(|&(p, _)| self.view.contains(p as NodeId))
            .flat_map(|(p, q)| q.iter().map(move |(&s, m)| (p as NodeId, s, m.clone())))
            .collect();
        for (peer, seq, inner) in pending {
            self.counters.retransmits.inc();
            self.obs.record(
                self.endpoint.now().as_micros(),
                EventKind::Retransmit,
                u32::from(peer),
                seq as u32,
                0,
            );
            let payload = DsoMessage::Env { seq, inner: Box::new(inner) }
                .into_payload(self.config.frame_wire_len);
            self.send_retransmit(peer, payload)?;
        }
        Ok(())
    }

    /// One retransmission send. A permanently disconnected peer has
    /// finished its run and torn its endpoint down — every exchange it
    /// owed this process completed, so its unacked queue is residue (acks
    /// lost in the shutdown race), not recoverable traffic. Write the
    /// link off instead of turning every subsequent timeout into a fatal
    /// transport error.
    fn send_retransmit(&mut self, peer: NodeId, payload: Payload) -> Result<(), DsoError> {
        match self.endpoint.send(peer, payload) {
            Ok(()) => Ok(()),
            Err(NetError::Disconnected) => {
                self.counters.links_abandoned.inc();
                if let Some(arq) = &mut self.arq {
                    arq.unacked[usize::from(peer)].clear();
                }
                Ok(())
            }
            Err(e) => Err(DsoError::Net(e)),
        }
    }

    /// Drains the reliability link toward a departing peer: waits
    /// (retransmitting that link on each timeout) until the peer has
    /// acknowledged every frame this process sent it. Messages from other
    /// peers delivered along the way are queued for normal consumption.
    ///
    /// Bounded: returns after `LINK_SETTLE_ROUNDS` timeouts even if
    /// acks never came — the peer then settled and exited already, and
    /// nothing further is owed on the link.
    fn settle_link(&mut self, peer: NodeId) -> Result<(), DsoError> {
        const LINK_SETTLE_ROUNDS: u32 = 32;
        let Some(arq) = &self.arq else { return Ok(()) };
        let cfg = arq.cfg;
        let mut silent = 0u32;
        loop {
            let link_empty =
                self.arq.as_ref().is_none_or(|a| a.unacked[usize::from(peer)].is_empty());
            if link_empty || silent >= LINK_SETTLE_ROUNDS.min(cfg.max_retries) {
                return Ok(());
            }
            match self.endpoint.recv_deadline(cfg.rto).map_err(DsoError::Net)? {
                Some(incoming) => self.admit(incoming)?,
                None => {
                    silent += 1;
                    self.counters.resyncs.inc();
                    self.obs.record(
                        self.endpoint.now().as_micros(),
                        EventKind::Resync,
                        silent,
                        0,
                        0,
                    );
                    self.retransmit_link(peer)?;
                }
            }
        }
    }

    /// Resends every unacknowledged frame on one link, oldest first.
    fn retransmit_link(&mut self, peer: NodeId) -> Result<(), DsoError> {
        let Some(arq) = &self.arq else { return Ok(()) };
        let pending: Vec<(u64, DsoMessage)> =
            arq.unacked[usize::from(peer)].iter().map(|(&s, m)| (s, m.clone())).collect();
        for (seq, inner) in pending {
            self.counters.retransmits.inc();
            self.obs.record(
                self.endpoint.now().as_micros(),
                EventKind::Retransmit,
                u32::from(peer),
                seq as u32,
                0,
            );
            let payload = DsoMessage::Env { seq, inner: Box::new(inner) }
                .into_payload(self.config.frame_wire_len);
            self.send_retransmit(peer, payload)?;
        }
        Ok(())
    }

    /// Best-effort tail flush of the reliability layer: keeps receiving
    /// (and retransmitting on timeout) until every peer has acknowledged
    /// everything this process sent, then returns `true`. Returns `false`
    /// when the retry budget runs out or all peers have already exited —
    /// whatever was still unacknowledged is then undeliverable.
    ///
    /// Call this at the end of a run so that peers still waiting on lost
    /// traffic can recover; a no-op without a reliability config.
    ///
    /// # Errors
    ///
    /// Returns transport errors other than end-of-run conditions.
    pub fn settle(&mut self) -> Result<bool, DsoError> {
        let Some(arq) = &self.arq else {
            return Ok(true);
        };
        let cfg = arq.cfg;
        let mut silent = 0u32;
        loop {
            let all_acked =
                self.arq.as_ref().is_none_or(|a| a.unacked.iter().all(|q| q.is_empty()));
            if all_acked {
                return Ok(true);
            }
            if silent >= cfg.max_retries {
                return Ok(false);
            }
            match self.endpoint.recv_deadline(cfg.rto) {
                Ok(Some(incoming)) => {
                    silent = 0;
                    self.admit(incoming)?;
                    while let Some((from, msg)) = self.ready.pop_front() {
                        self.absorb_settled(from, msg)?;
                    }
                }
                Ok(None) => {
                    silent += 1;
                    self.counters.resyncs.inc();
                    self.obs.record(
                        self.endpoint.now().as_micros(),
                        EventKind::Resync,
                        silent,
                        0,
                        0,
                    );
                    self.retransmit_unacked()?;
                }
                // Every other node finished: nobody is left to ack.
                Err(NetError::Deadlock(_)) | Err(NetError::Disconnected) => return Ok(false),
                Err(e) => return Err(DsoError::Net(e)),
            }
        }
    }

    /// Files a logical message that arrived during [`SdsoRuntime::settle`]:
    /// object traffic is serviced, app messages are queued, late rendezvous
    /// traffic is buffered (future) or ignored (already satisfied).
    fn absorb_settled(&mut self, from: NodeId, msg: DsoMessage) -> Result<(), DsoError> {
        if msg.epoch().is_some_and(|e| e < self.view.epoch()) {
            self.counters.cross_epoch_dropped.inc();
            return Ok(());
        }
        match msg {
            DsoMessage::Data { time, updates, .. } if time > self.clock.now() => {
                self.counters.early_buffered.inc();
                self.early.entry((from, time)).or_default().updates.extend(updates);
            }
            DsoMessage::Sync { time, .. } if time > self.clock.now() => {
                self.counters.early_buffered.inc();
                self.early.entry((from, time)).or_default().sync = true;
            }
            DsoMessage::Data { .. } | DsoMessage::Sync { .. } => {}
            other => {
                if let Some(Event::App { from, class, bytes }) = self.dispatch(from, other)? {
                    self.app_inbox.push_back((from, class, bytes));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Put/get/app plumbing (used by pull-based protocols such as EC)
    // ------------------------------------------------------------------

    /// Pushes an object's full body to `peer` without waiting (`async_put`).
    ///
    /// # Errors
    ///
    /// Returns transport errors or [`DsoError::UnknownObject`].
    pub fn async_put(&mut self, peer: NodeId, id: ObjectId) -> Result<(), DsoError> {
        let replica = self.store.replica(id)?;
        let msg = DsoMessage::Put {
            object: id,
            version: replica.version(),
            body: replica.data().to_vec(),
            wants_ack: false,
        };
        self.send_msg(peer, msg)
    }

    /// Pushes an object's full body to `peer` and blocks until the peer
    /// acknowledges receipt (`sync_put`).
    ///
    /// # Errors
    ///
    /// Returns transport errors or [`DsoError::UnknownObject`].
    pub fn sync_put(&mut self, peer: NodeId, id: ObjectId) -> Result<(), DsoError> {
        let replica = self.store.replica(id)?;
        let msg = DsoMessage::Put {
            object: id,
            version: replica.version(),
            body: replica.data().to_vec(),
            wants_ack: true,
        };
        self.send_msg(peer, msg)?;
        let target = self.acks_received + 1;
        while self.acks_received < target {
            match self.recv_event()? {
                Event::App { from, class, bytes } => {
                    self.app_inbox.push_back((from, class, bytes));
                }
                Event::Ack { .. } | Event::GetRep { .. } => {}
            }
        }
        Ok(())
    }

    /// Requests an object's current body from `peer` without blocking
    /// (`async_get`); the reply is applied whenever the message pump next
    /// runs.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn async_get(&mut self, peer: NodeId, id: ObjectId) -> Result<(), DsoError> {
        self.send_msg(peer, DsoMessage::GetReq { object: id })
    }

    /// Pulls an object's current body from `peer`, blocking until it
    /// arrives and has been applied (`sync_get`) — the call entry
    /// consistency uses "to pull the up-to-date copy of an object from the
    /// owner".
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn sync_get(&mut self, peer: NodeId, id: ObjectId) -> Result<(), DsoError> {
        self.send_msg(peer, DsoMessage::GetReq { object: id })?;
        loop {
            match self.recv_event()? {
                Event::GetRep { from, object } if from == peer && object == id => return Ok(()),
                Event::App { from, class, bytes } => {
                    self.app_inbox.push_back((from, class, bytes));
                }
                Event::GetRep { .. } | Event::Ack { .. } => {}
            }
        }
    }

    /// Sends protocol-layer bytes to `peer` with an explicit accounting
    /// class.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn send_app(
        &mut self,
        peer: NodeId,
        class: MsgClass,
        bytes: Vec<u8>,
    ) -> Result<(), DsoError> {
        self.send_msg(peer, DsoMessage::App { class, bytes })
    }

    /// Blocks until the next protocol-layer message arrives, servicing
    /// object traffic (`Put`, `GetReq`, `GetRep`, `Ack`) internally along
    /// the way.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a protocol violation if rendezvous
    /// traffic shows up (exchange- and pull-based protocols must not be
    /// mixed on one runtime).
    pub fn recv_app(&mut self) -> Result<(NodeId, Vec<u8>), DsoError> {
        if let Some((from, _class, bytes)) = self.app_inbox.pop_front() {
            return Ok((from, bytes));
        }
        loop {
            match self.recv_event()? {
                Event::App { from, bytes, .. } => return Ok((from, bytes)),
                Event::GetRep { .. } | Event::Ack { .. } => {}
            }
        }
    }

    /// Non-blocking variant of [`SdsoRuntime::recv_app`]: drains whatever
    /// already arrived.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a protocol violation on rendezvous
    /// traffic.
    pub fn try_recv_app(&mut self) -> Result<Option<(NodeId, Vec<u8>)>, DsoError> {
        if let Some((from, _class, bytes)) = self.app_inbox.pop_front() {
            return Ok(Some((from, bytes)));
        }
        while let Some(event) = self.try_recv_event()? {
            if let Event::App { from, bytes, .. } = event {
                return Ok(Some((from, bytes)));
            }
        }
        Ok(None)
    }

    /// Blocking message pump: receives one message, services object traffic
    /// internally, and surfaces everything else as an [`Event`].
    ///
    /// # Errors
    ///
    /// Returns transport errors or a protocol violation on rendezvous
    /// traffic.
    pub fn recv_event(&mut self) -> Result<Event, DsoError> {
        loop {
            let (from, msg) = self.next_msg_blocking()?;
            if let Some(event) = self.dispatch(from, msg)? {
                return Ok(event);
            }
        }
    }

    /// Non-blocking message pump.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a protocol violation on rendezvous
    /// traffic.
    pub fn try_recv_event(&mut self) -> Result<Option<Event>, DsoError> {
        while let Some((from, msg)) = self.next_msg_try()? {
            if let Some(event) = self.dispatch(from, msg)? {
                return Ok(Some(event));
            }
        }
        Ok(None)
    }

    /// Services one logical message; returns an event if it must surface
    /// to the caller.
    fn dispatch(&mut self, from: NodeId, msg: DsoMessage) -> Result<Option<Event>, DsoError> {
        match msg {
            DsoMessage::Put { object, version, body, wants_ack } => {
                self.lamport = self.lamport.max(version.time.as_ticks());
                self.store.replace_if_newer(object, &body, version)?;
                if wants_ack {
                    self.send_msg(from, DsoMessage::Ack)?;
                }
                Ok(None)
            }
            DsoMessage::GetReq { object } => {
                let replica = self.store.replica(object)?;
                let rep = DsoMessage::GetRep {
                    object,
                    version: replica.version(),
                    body: replica.data().to_vec(),
                };
                self.send_msg(from, rep)?;
                Ok(None)
            }
            DsoMessage::GetRep { object, version, body } => {
                self.lamport = self.lamport.max(version.time.as_ticks());
                self.store.replace_if_newer(object, &body, version)?;
                Ok(Some(Event::GetRep { from, object }))
            }
            DsoMessage::Ack => {
                self.acks_received += 1;
                Ok(Some(Event::Ack { from }))
            }
            DsoMessage::App { class, bytes } => Ok(Some(Event::App { from, class, bytes })),
            DsoMessage::SnapshotReq { .. } => {
                self.send_snapshot(from)?;
                Ok(None)
            }
            // A duplicate of a snapshot this process already installed.
            DsoMessage::Snapshot { .. } => Ok(None),
            DsoMessage::Data { .. } | DsoMessage::Sync { .. } => Err(DsoError::ProtocolViolation(
                format!("rendezvous message from {from} outside an exchange"),
            )),
            DsoMessage::Env { .. } | DsoMessage::SeqAck { .. } => Err(DsoError::ProtocolViolation(
                format!("reliability-layer message from {from} reached dispatch"),
            )),
            // Consumed (offer) or resolved into plain `Data` (compressed
            // batch) by `deliver` at admission; reaching dispatch means a
            // receive path skipped the codec layer.
            DsoMessage::CodecOffer { .. } | DsoMessage::Data2 { .. } => {
                Err(DsoError::ProtocolViolation(format!(
                    "codec-layer message from {from} reached dispatch"
                )))
            }
        }
    }

    fn send_msg(&mut self, peer: NodeId, msg: DsoMessage) -> Result<(), DsoError> {
        // Suppress protocol traffic to non-members: a departed peer will
        // never consume it, and queueing it on the reliability layer would
        // leave permanently-unackable state. Sequence acks are exempt —
        // they are what lets a leaver's final settle converge.
        if !self.view.contains(peer) && !matches!(msg, DsoMessage::SeqAck { .. }) {
            self.counters.non_member_dropped.inc();
            return Ok(());
        }
        let payload = self.wrap_for_send(peer, msg);
        self.endpoint.send(peer, payload).map_err(DsoError::Net)
    }

    /// Sends several messages to `peer`, flushing them as one batched
    /// transport write when [`DsoConfig::batch_frames`] is on. Message
    /// content, order, and per-message accounting are identical to sending
    /// each with [`SdsoRuntime::send_msg`]; only the number of underlying
    /// transport writes changes.
    fn send_msgs(&mut self, peer: NodeId, msgs: Vec<DsoMessage>) -> Result<(), DsoError> {
        if !self.config.batch_frames || msgs.len() < 2 {
            for msg in msgs {
                self.send_msg(peer, msg)?;
            }
            return Ok(());
        }
        // Exchange batches never carry SeqAck, so suppression is all-or-none.
        if !self.view.contains(peer) {
            self.counters.non_member_dropped.add(msgs.len() as u64);
            return Ok(());
        }
        let mut payloads = Vec::with_capacity(msgs.len());
        for msg in msgs {
            payloads.push(self.wrap_for_send(peer, msg));
        }
        self.endpoint.send_batch(peer, payloads).map_err(DsoError::Net)
    }

    /// Wraps `msg` in the reliability envelope (when configured) and encodes
    /// it for the wire. Callers must have done non-member suppression.
    fn wrap_for_send(&mut self, peer: NodeId, msg: DsoMessage) -> Payload {
        let msg = match &mut self.arq {
            // Acks police the sequenced stream and must not join it.
            Some(arq) if !matches!(msg, DsoMessage::SeqAck { .. }) => {
                let p = usize::from(peer);
                let seq = arq.tx_seq[p];
                arq.tx_seq[p] += 1;
                arq.unacked[p].insert(seq, msg.clone());
                DsoMessage::Env { seq, inner: Box::new(msg) }
            }
            _ => msg,
        };
        msg.into_payload(self.config.frame_wire_len)
    }
}

/// Hands a fully-consumed incoming payload's storage back to the global
/// buffer pool, closing the pooled-encode recycle loop. A no-op when the
/// bytes are still shared (e.g. a fault layer kept a duplicate) or the
/// pool is full.
fn reclaim_incoming(payload: Payload) {
    sdso_net::pool::global().reclaim(payload.bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sfunction::EveryTick;
    use sdso_net::memory::{MemoryEndpoint, MemoryHub};

    fn pair_with(config: DsoConfig) -> Vec<SdsoRuntime<MemoryEndpoint>> {
        MemoryHub::new(2)
            .into_endpoints()
            .into_iter()
            .map(|ep| {
                let mut rt = SdsoRuntime::new(ep, config);
                rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
                rt.share(ObjectId(2), vec![0u8; 8]).unwrap();
                rt.init_schedule(&mut EveryTick).unwrap();
                rt
            })
            .collect()
    }

    fn pair() -> Vec<SdsoRuntime<MemoryEndpoint>> {
        pair_with(DsoConfig::compact())
    }

    /// Runs both runtimes' closures on separate threads (exchange blocks).
    fn run_pair<E, F>(mut runtimes: Vec<SdsoRuntime<E>>, f: F) -> Vec<SdsoRuntime<E>>
    where
        E: Endpoint + 'static,
        F: Fn(&mut SdsoRuntime<E>) + Send + Sync + 'static + Copy,
    {
        let handles: Vec<_> = runtimes
            .drain(..)
            .map(|mut rt| {
                std::thread::spawn(move || {
                    f(&mut rt);
                    rt
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn compressed_exchange_negotiates_lazily_and_converges() {
        use crate::config::WireConfig;
        let runtimes = pair_with(DsoConfig::compact().with_wire(WireConfig::compressed()));
        let done = run_pair(runtimes, |rt| {
            let me = rt.node_id();
            let obj = if me == 0 { ObjectId(1) } else { ObjectId(2) };
            for round in 0..4u8 {
                rt.write(obj, usize::from(round) as u32, &[me as u8 + 1]).unwrap();
                rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
                if round == 0 {
                    // Offers cross during the first exchange, so its data
                    // had to go out v1 absolute.
                    assert_eq!(rt.metrics().codec_v2_sent, 0);
                }
            }
            // Every post-negotiation batch went out compressed.
            assert_eq!(rt.metrics().codec_v2_sent, 3);
            assert_eq!(rt.metrics().codec_v2_fallbacks, 0);
        });
        // Bit-identical convergence: same final bytes as an uncompressed
        // pair applying the same writes would produce.
        for rt in &done {
            assert_eq!(rt.read(ObjectId(1)).unwrap(), &[1, 1, 1, 1, 0, 0, 0, 0]);
            assert_eq!(rt.read(ObjectId(2)).unwrap(), &[2, 2, 2, 2, 0, 0, 0, 0]);
        }
    }

    #[test]
    fn first_data2_decodes_against_the_registered_bytes() {
        use crate::config::WireConfig;
        let runtimes: Vec<_> = MemoryHub::new(2)
            .into_endpoints()
            .into_iter()
            .map(|ep| {
                let config = DsoConfig::compact().with_wire(WireConfig::compressed());
                let mut rt = SdsoRuntime::new(ep, config);
                rt.share(ObjectId(1), vec![5u8; 8]).unwrap();
                rt.share(ObjectId(2), vec![6u8; 8]).unwrap();
                rt.init_schedule(&mut EveryTick).unwrap();
                rt
            })
            .collect();
        let done = run_pair(runtimes, |rt| {
            let me = rt.node_id();
            let obj = if me == 0 { ObjectId(1) } else { ObjectId(2) };
            // The offers cross in an exchange that ships no data.
            rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            // Two local writes before the object's first `Data2`: both ends
            // must seed its XOR shadow from the registered bytes, not from
            // the sender's changed replica.
            rt.write(obj, 0, &[me as u8 + 1; 2]).unwrap();
            rt.write(obj, 6, &[me as u8 + 1; 2]).unwrap();
            rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            assert_eq!(rt.metrics().codec_v2_sent, 1);
        });
        for rt in &done {
            assert_eq!(rt.read(ObjectId(1)).unwrap(), &[1, 1, 5, 5, 5, 5, 1, 1]);
            assert_eq!(rt.read(ObjectId(2)).unwrap(), &[2, 2, 6, 6, 6, 6, 2, 2]);
        }
    }

    #[test]
    fn compressed_node_interops_with_uncompressed_peer() {
        use crate::config::WireConfig;
        let runtimes: Vec<_> = MemoryHub::new(2)
            .into_endpoints()
            .into_iter()
            .map(|ep| {
                // Node 0 wants compression; node 1 has it off and must
                // simply ignore the offer.
                let wire =
                    if ep.node_id() == 0 { WireConfig::compressed() } else { WireConfig::v1() };
                let mut rt = SdsoRuntime::new(ep, DsoConfig::compact().with_wire(wire));
                rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
                rt.share(ObjectId(2), vec![0u8; 8]).unwrap();
                rt.init_schedule(&mut EveryTick).unwrap();
                rt
            })
            .collect();
        let done = run_pair(runtimes, |rt| {
            let me = rt.node_id();
            let obj = if me == 0 { ObjectId(1) } else { ObjectId(2) };
            for _ in 0..3 {
                rt.write(obj, 0, &[me as u8 + 1; 4]).unwrap();
                rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            }
            // The peer never offers back, so node 0 stays on v1 forever.
            assert_eq!(rt.metrics().codec_v2_sent, 0);
        });
        for rt in &done {
            assert_eq!(&rt.read(ObjectId(1)).unwrap()[..4], &[1; 4]);
            assert_eq!(&rt.read(ObjectId(2)).unwrap()[..4], &[2; 4]);
        }
    }

    #[test]
    fn codec_version_downgrades_after_reconnect() {
        use crate::config::WireConfig;
        let runtimes = pair_with(DsoConfig::compact().with_wire(WireConfig::compressed()));
        let done = run_pair(runtimes, |rt| {
            let me = rt.node_id();
            let obj = if me == 0 { ObjectId(1) } else { ObjectId(2) };
            let mut round = 0u8;
            let mut step = |rt: &mut SdsoRuntime<MemoryEndpoint>| {
                rt.write(obj, u32::from(round % 8), &[me as u8 + 1]).unwrap();
                rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
                round += 1;
            };
            step(rt);
            step(rt); // Negotiated: this batch went out v2.
            assert_eq!(rt.metrics().codec_v2_sent, 1);
            if me == 0 {
                // What drain_departures does when node 1's link flaps:
                // forget the negotiation, restart the compressed stream.
                rt.downgrade_link_codec(1);
            }
            let before = rt.metrics().codec_v2_sent;
            step(rt); // Node 0 re-offers; its data goes v1 this round.
            if me == 0 {
                assert_eq!(
                    rt.metrics().codec_v2_sent,
                    before,
                    "a downgraded link must not send compressed batches"
                );
            }
            // The repeat offer makes the peer re-offer; within two more
            // rounds both replies have crossed and v2 resumes.
            step(rt);
            step(rt);
            assert!(
                rt.metrics().codec_v2_sent > before,
                "renegotiation must restore the compressed encoding"
            );
        });
        // The downgrade round, the v1 rounds, and the restored-v2 rounds
        // must all have applied: full bit-identical convergence.
        for rt in &done {
            assert_eq!(rt.read(ObjectId(1)).unwrap(), &[1, 1, 1, 1, 1, 0, 0, 0]);
            assert_eq!(rt.read(ObjectId(2)).unwrap(), &[2, 2, 2, 2, 2, 0, 0, 0]);
        }
    }

    #[test]
    fn negotiated_v2_exchange_sends_one_frame_per_due_peer() {
        use crate::config::WireConfig;
        // Messages each node puts on the wire per exchange: (first, later).
        // Compressed: the offer plus the paper's Data + Sync while the
        // offers cross, then one fused Data2. v1: Data + Sync throughout.
        for (wire, first, later) in [(WireConfig::compressed(), 3, 1), (WireConfig::v1(), 2, 2)] {
            let runtimes = pair_with(DsoConfig::compact().with_wire(wire));
            let done = run_pair(runtimes, move |rt| {
                let me = rt.node_id();
                let obj = if me == 0 { ObjectId(1) } else { ObjectId(2) };
                let mut sent = 0;
                for round in 0..4u8 {
                    rt.write(obj, u32::from(round), &[me as u8 + 1]).unwrap();
                    rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
                    let total = rt.net_metrics().total_sent();
                    let expected = if round == 0 { first } else { later };
                    assert_eq!(total - sent, expected, "node {me} round {round}");
                    sent = total;
                }
            });
            for rt in &done {
                assert_eq!(rt.read(ObjectId(1)).unwrap(), &[1, 1, 1, 1, 0, 0, 0, 0]);
                assert_eq!(rt.read(ObjectId(2)).unwrap(), &[2, 2, 2, 2, 0, 0, 0, 0]);
            }
        }
    }

    #[test]
    fn encode_data_fuses_the_pair_only_on_negotiated_links() {
        use crate::config::WireConfig;
        let kinds = |msgs: Vec<DsoMessage>| -> Vec<&'static str> {
            msgs.iter()
                .map(|m| match m {
                    DsoMessage::Data { .. } => "Data",
                    DsoMessage::Sync { .. } => "Sync",
                    DsoMessage::Data2 { .. } => "Data2",
                    _ => "other",
                })
                .collect()
        };
        let t = LogicalTime::from_ticks(1);
        let batch = |object| {
            vec![WireUpdate { object, diff: Diff::single(0, vec![7]), version: Version::new(t, 0) }]
        };
        let mut v1 = pair().remove(0);
        assert_eq!(kinds(v1.encode_data(1, Epoch::ZERO, t, batch(ObjectId(1)))), ["Data", "Sync"]);

        let mut rt = pair_with(DsoConfig::compact().with_wire(WireConfig::compressed())).remove(0);
        let peer_offers = |rt: &mut SdsoRuntime<MemoryEndpoint>, version| {
            rt.codec.as_mut().unwrap()[1].peer_version = version;
        };
        let before_negotiation = rt.encode_data(1, Epoch::ZERO, t, batch(ObjectId(1)));
        assert_eq!(kinds(before_negotiation), ["Data", "Sync"]);
        // A peer offering the number of an earlier layout (2: unfused,
        // 3: explicit writers and run lists) is sent v1, never a frame it
        // would misread.
        for old_layout in [2, 3] {
            peer_offers(&mut rt, Some(old_layout));
            let msgs = rt.encode_data(1, Epoch::ZERO, t, batch(ObjectId(1)));
            assert_eq!(kinds(msgs), ["Data", "Sync"], "peer offering {old_layout}");
        }
        peer_offers(&mut rt, Some(CODEC_V2));
        assert_eq!(kinds(rt.encode_data(1, Epoch::ZERO, t, batch(ObjectId(1)))), ["Data2"]);
        // Fallback: an unshared object has no initial body to seed its
        // XOR shadow, so the batch goes out as the paper's two messages.
        assert_eq!(kinds(rt.encode_data(1, Epoch::ZERO, t, batch(ObjectId(99)))), ["Data", "Sync"]);
        assert_eq!(rt.metrics().codec_v2_fallbacks, 1);
        // Nothing to ship: a bare SYNC, whatever the link negotiated.
        assert_eq!(kinds(rt.encode_data(1, Epoch::ZERO, t, Vec::new())), ["Sync"]);
        assert_eq!(rt.metrics().codec_v2_sent, 1);
    }

    #[test]
    fn dedup_updates_coalesces_same_object_batches() {
        let mut rt = pair().remove(0);
        let v = |t: u64, w: u16| Version::new(LogicalTime::from_ticks(t), w);
        let mut updates = vec![
            WireUpdate { object: ObjectId(1), diff: Diff::single(0, vec![1, 1]), version: v(1, 0) },
            WireUpdate { object: ObjectId(2), diff: Diff::single(4, vec![9]), version: v(2, 0) },
            WireUpdate { object: ObjectId(1), diff: Diff::single(1, vec![2, 2]), version: v(3, 0) },
        ];
        rt.dedup_updates(&mut updates);
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[0].object, ObjectId(1));
        assert_eq!(updates[0].version, v(3, 0), "merged update keeps the newest stamp");
        let mut body = [0u8; 4];
        updates[0].diff.apply(&mut body).unwrap();
        assert_eq!(body, [1, 2, 2, 0], "later bytes win overlaps, as one-by-one application");
        assert_eq!(updates[1].object, ObjectId(2));
        assert_eq!(rt.metrics().batch_deduped, 1);
    }

    #[test]
    fn drain_departures_proposes_leave_for_dead_links() {
        let mut eps = MemoryHub::new(3).into_endpoints();
        drop(eps.pop().unwrap()); // Node 2 dies: its channels close.
        let mut rt = SdsoRuntime::new(eps.remove(0), DsoConfig::compact());
        assert!(rt.drain_departures().is_none(), "no link events before any traffic");
        // Sending into the closed channel surfaces the dead link.
        assert!(rt.endpoint_mut().send(2, Payload::control(vec![0u8])).is_err());
        assert_eq!(rt.drain_departures(), Some(ViewChange::leave([2])));
        assert!(rt.drain_departures().is_none(), "the drain consumes its events");
    }

    #[test]
    fn exchange_propagates_writes_both_ways() {
        let runtimes = pair();
        let done = run_pair(runtimes, |rt| {
            let me = rt.node_id();
            let obj = if me == 0 { ObjectId(1) } else { ObjectId(2) };
            rt.write(obj, 0, &[me as u8 + 1; 4]).unwrap();
            let report = rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            assert_eq!(report.time, LogicalTime::from_ticks(1));
            assert_eq!(report.peers.len(), 1);
        });
        for rt in &done {
            assert_eq!(&rt.read(ObjectId(1)).unwrap()[..4], &[1, 1, 1, 1]);
            assert_eq!(&rt.read(ObjectId(2)).unwrap()[..4], &[2, 2, 2, 2]);
        }
    }

    #[test]
    fn concurrent_writes_to_one_object_converge_lww() {
        let runtimes = pair();
        let done = run_pair(runtimes, |rt| {
            let me = rt.node_id();
            // Both write the same object in the same interval.
            rt.write(ObjectId(1), 0, &[me as u8 + 10; 8]).unwrap();
            rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
        });
        // Same tick, higher writer id wins everywhere.
        for rt in &done {
            assert_eq!(rt.read(ObjectId(1)).unwrap(), &[11u8; 8]);
        }
    }

    #[test]
    fn repeated_exchanges_tick_the_clock() {
        let runtimes = pair();
        let done = run_pair(runtimes, |rt| {
            for i in 0..5u8 {
                rt.write(ObjectId(1), 0, &[i]).unwrap();
                rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            }
        });
        for rt in &done {
            assert_eq!(rt.logical_now(), LogicalTime::from_ticks(5));
            assert_eq!(rt.metrics().exchanges, 5);
        }
    }

    #[test]
    fn sync_put_transfers_and_acknowledges() {
        let mut runtimes = pair();
        let mut b = runtimes.pop().unwrap();
        let mut a = runtimes.pop().unwrap();
        let t = std::thread::spawn(move || {
            // B services the put via its pump (waits for an app message that
            // A sends afterwards as a completion signal).
            let (_, bytes) = b.recv_app().unwrap();
            assert_eq!(bytes, b"done");
            assert_eq!(b.read(ObjectId(1)).unwrap(), &[9u8; 8]);
            b
        });
        a.write(ObjectId(1), 0, &[9u8; 8]).unwrap();
        a.sync_put(1, ObjectId(1)).unwrap();
        a.send_app(1, MsgClass::Control, b"done".to_vec()).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn sync_get_pulls_remote_state() {
        let mut runtimes = pair();
        let mut b = runtimes.pop().unwrap();
        let mut a = runtimes.pop().unwrap();
        let t = std::thread::spawn(move || {
            // B answers A's GetReq inside its pump, then returns.
            let (_, bytes) = b.recv_app().unwrap();
            assert_eq!(bytes, b"bye");
            b
        });
        // Make B's copy the newer one first.
        a.sync_get(1, ObjectId(1)).unwrap(); // pulls (identical) state
        a.send_app(1, MsgClass::Control, b"bye".to_vec()).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn stale_version_dropped_on_apply() {
        let mut runtimes = pair();
        let mut b = runtimes.pop().unwrap();
        let mut a = runtimes.pop().unwrap();
        // A writes at tick 1 (clock 0 → stamp 1).
        a.write(ObjectId(1), 0, &[5; 8]).unwrap();
        let t = std::thread::spawn(move || {
            // B writes the same object at stamp 1 too but with higher id.
            b.write(ObjectId(1), 0, &[7; 8]).unwrap();
            b.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            b
        });
        a.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
        let b = t.join().unwrap();
        assert_eq!(a.read(ObjectId(1)).unwrap(), &[7; 8]);
        assert_eq!(b.read(ObjectId(1)).unwrap(), &[7; 8]);
        assert_eq!(b.metrics().updates_stale, 1, "A's tied-but-lower write dropped at B");
    }

    #[test]
    fn frame_padding_applies_to_all_runtime_traffic() {
        let eps = MemoryHub::new(2).into_endpoints();
        let mut runtimes: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let mut rt = SdsoRuntime::new(ep, DsoConfig::paper());
                rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
                rt
            })
            .collect();
        runtimes[0].async_put(1, ObjectId(1)).unwrap();
        let sent = runtimes[0].net_metrics();
        assert_eq!(sent.data_sent.bytes, 2048);
    }

    #[test]
    fn broadcast_mode_ignores_schedule() {
        // Without init_schedule, multicast exchanges with nobody; broadcast
        // must still reach the peer.
        let eps = MemoryHub::new(2).into_endpoints();
        let runtimes: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
                rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
                rt
            })
            .collect();
        let done = run_pair(runtimes, |rt| {
            rt.write(ObjectId(1), 0, &[rt.node_id() as u8 + 1]).unwrap();
            let report = rt.exchange(true, SendMode::Broadcast, &mut EveryTick).unwrap();
            assert_eq!(report.peers.len(), 1);
        });
        for rt in &done {
            assert_eq!(rt.read(ObjectId(1)).unwrap()[0], 2);
        }
    }

    #[test]
    fn push_mode_does_not_block() {
        // resync = false: the sender pushes and proceeds without replies.
        let mut runtimes = pair();
        let mut b = runtimes.pop().unwrap();
        let mut a = runtimes.pop().unwrap();
        a.write(ObjectId(1), 0, &[3]).unwrap();
        let report = a.exchange(false, SendMode::Multicast, &mut EveryTick).unwrap();
        assert_eq!(report.updates_applied, 0);
        // B's own (resync) exchange consumes A's pushed pair — A's push
        // already satisfied B's wait, so B completes without A blocking.
        let t = std::thread::spawn(move || {
            b.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            assert_eq!(b.read(ObjectId(1)).unwrap()[0], 3);
            b
        });
        t.join().unwrap();
        let _ = a;
    }

    #[test]
    fn lossy_exchange_recovers_via_resync() {
        use sdso_net::{FaultPlan, FaultyEndpoint};
        let plan = FaultPlan::new(7).with_drop(0.3).with_dup(0.1);
        let retry = RetryConfig { rto: SimSpan::from_millis(5), max_retries: 400 };
        let cfg = DsoConfig::compact().with_reliability(Some(retry));
        let runtimes: Vec<_> = MemoryHub::new(2)
            .into_endpoints()
            .into_iter()
            .map(|ep| {
                let mut rt = SdsoRuntime::new(FaultyEndpoint::new(ep, plan.clone()), cfg);
                rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
                rt.init_schedule(&mut EveryTick).unwrap();
                rt
            })
            .collect();
        let done = run_pair(runtimes, |rt| {
            for i in 0..10u8 {
                rt.write(ObjectId(1), 0, &[(rt.node_id() as u8 + 1) * 10 + i]).unwrap();
                rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            }
            rt.settle().unwrap();
        });
        assert_eq!(
            done[0].read(ObjectId(1)).unwrap(),
            done[1].read(ObjectId(1)).unwrap(),
            "replicas converge despite a 30% drop / 10% dup link"
        );
        let m = done[0].metrics().merged(&done[1].metrics());
        let faults = done[0].net_metrics().merged(&done[1].net_metrics());
        assert!(faults.drops_injected > 0, "the plan really dropped traffic");
        assert!(
            m.resyncs > 0 && m.retransmits > 0,
            "lost rendezvous messages were recovered by timeout resync, got {m:?}"
        );
    }

    #[test]
    fn reliability_off_adds_no_wire_overhead() {
        // The EC fast path and the paper-fidelity metrics depend on plain
        // (unenveloped) traffic when reliability is off.
        let mut eps = MemoryHub::new(2).into_endpoints();
        let b = eps.pop().unwrap();
        let mut a = SdsoRuntime::new(eps.pop().unwrap(), DsoConfig::compact());
        a.share(ObjectId(1), vec![0u8; 8]).unwrap();
        a.async_put(1, ObjectId(1)).unwrap();
        let sent = a.net_metrics();
        assert_eq!(sent.data_sent.msgs, 1);
        drop(b);
    }

    #[test]
    fn unknown_object_write_rejected() {
        let mut runtimes = pair();
        let a = &mut runtimes[0];
        assert!(matches!(a.write(ObjectId(99), 0, &[1]), Err(DsoError::UnknownObject(_))));
    }
}

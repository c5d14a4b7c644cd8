//! The endpoint wrapper that times a game from outside the program.
//!
//! `run_node` calls [`Endpoint::advance`] exactly twice per tick in every
//! protocol: once for the modelled think time before the tick's game step
//! and once for the write cost after it. Every even-numbered `advance`
//! therefore starts a tick, and there the probe reads both clocks: the
//! host's [`Instant`] and the endpoint's own [`Endpoint::now`] (virtual
//! time in the simulator, monotonic host time on real sockets).
//!
//! In [`ProbeMode::Ticks`] that is all it does, into a buffer the wrapper
//! owns, so the untraced run pays one clock pair per tick and nothing per
//! message. [`ProbeMode::Calls`] additionally times every mutating call on
//! both clocks, counts the traffic it forwards and keeps a sample of the
//! sent payloads for the replay micro-costs. Either way the log is handed
//! to a shared sink once, when `run_node` drops the endpoint.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sdso_net::{
    Endpoint, Incoming, MsgClass, NetError, NetMetricsSnapshot, NodeId, Payload, PeerEvent,
    Recorder, SimInstant, SimSpan,
};
use sdso_sim::NetworkModel;

/// How much the probe records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    /// Tick boundaries only.
    Ticks,
    /// Tick boundaries plus every call's cost, traffic counts and a
    /// payload sample.
    Calls,
}

/// Time and count spent in one class of endpoint calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTotals {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside the calls (or between them, for `outside`).
    pub host_ns: u64,
    /// Endpoint-clock microseconds that passed inside the calls.
    pub clock_us: u64,
}

impl CallTotals {
    fn add(&mut self, host_ns: u64, clock_us: u64) {
        self.calls += 1;
        self.host_ns += host_ns;
        self.clock_us += clock_us;
    }

    /// Sums two totals.
    pub fn merged(self, other: CallTotals) -> CallTotals {
        CallTotals {
            calls: self.calls + other.calls,
            host_ns: self.host_ns + other.host_ns,
            clock_us: self.clock_us + other.clock_us,
        }
    }
}

/// One sent payload, copied for replay.
#[derive(Debug, Clone)]
pub struct Captured {
    /// The sender.
    pub from: NodeId,
    /// Accounting class.
    pub class: MsgClass,
    /// Modelled wire length.
    pub wire_len: u32,
    /// The encoded message.
    pub bytes: Vec<u8>,
}

impl Captured {
    /// Rebuilds the payload as the transport saw it.
    pub fn payload(&self) -> Payload {
        Payload::new(self.class, self.bytes.clone()).with_wire_len(self.wire_len)
    }
}

/// Per-call costs and traffic, recorded only in [`ProbeMode::Calls`].
#[derive(Debug, Default, Clone)]
pub struct CallProfile {
    /// `send`, `send_batch` and `broadcast`.
    pub send: CallTotals,
    /// `recv`, `try_recv` and `recv_deadline`.
    pub recv: CallTotals,
    /// `advance`.
    pub advance: CallTotals,
    /// The remaining mutating calls (metrics deltas, peer bookkeeping).
    pub other: CallTotals,
    /// Time between calls: game, runtime and protocol work.
    pub outside: CallTotals,
    /// Messages handed to the transport.
    pub msgs_sent: u64,
    /// Sum of the link model's transmission time over the messages sent.
    pub transmit_us: u64,
    /// A sample of the sent payloads spread over the whole run.
    pub captured: Vec<Captured>,
}

/// Payloads kept per node before the sample is thinned.
const CAPTURE_CAP: usize = 2048;

/// Everything one node's probe recorded.
#[derive(Debug, Clone)]
pub struct NodeLog {
    /// The node.
    pub node: NodeId,
    /// Host time at the start of each tick.
    pub host: Vec<Instant>,
    /// Endpoint clock (µs) at the start of each tick.
    pub clock: Vec<u64>,
    /// Call costs, in [`ProbeMode::Calls`] only.
    pub profile: Option<CallProfile>,
}

/// Where probes deliver their logs when the game drops them.
pub type LogSink = Arc<Mutex<Vec<NodeLog>>>;

/// An [`Endpoint`] that forwards every call to `inner` and records tick
/// boundaries (and, when tracing, call costs) on the way through.
pub struct Probe<E: Endpoint> {
    inner: E,
    mode: ProbeMode,
    model: Option<NetworkModel>,
    sink: LogSink,
    advances: u64,
    log: NodeLog,
    profile: CallProfile,
    capture_stride: u64,
    sent_seen: u64,
    last_host: Instant,
    last_clock: u64,
}

impl<E: Endpoint> Probe<E> {
    /// Wraps `inner`. `model` is the simulator's link model, used to price
    /// each sent message's transmission time (pass `None` on real sockets).
    pub fn new(
        inner: E,
        mode: ProbeMode,
        model: Option<NetworkModel>,
        sink: LogSink,
        ticks_hint: usize,
    ) -> Self {
        let node = inner.node_id();
        let last_clock = inner.now().as_micros();
        Probe {
            inner,
            mode,
            model,
            sink,
            advances: 0,
            log: NodeLog {
                node,
                host: Vec::with_capacity(ticks_hint),
                clock: Vec::with_capacity(ticks_hint),
                profile: None,
            },
            profile: CallProfile::default(),
            capture_stride: 1,
            sent_seen: 0,
            last_host: Instant::now(),
            last_clock,
        }
    }

    fn traced(&self) -> bool {
        self.mode == ProbeMode::Calls
    }

    /// Opens a timed call: closes the preceding outside interval and
    /// returns the call's start on both clocks.
    fn begin(&mut self) -> (Instant, u64) {
        let host = Instant::now();
        let clock = self.inner.now().as_micros();
        let gap_ns = host.duration_since(self.last_host).as_nanos() as u64;
        self.profile.outside.add(gap_ns, clock.saturating_sub(self.last_clock));
        (host, clock)
    }

    /// Closes a timed call opened by [`Probe::begin`].
    fn end(&mut self, start: (Instant, u64), pick: fn(&mut CallProfile) -> &mut CallTotals) {
        let host = Instant::now();
        let clock = self.inner.now().as_micros();
        let host_ns = host.duration_since(start.0).as_nanos() as u64;
        pick(&mut self.profile).add(host_ns, clock.saturating_sub(start.1));
        self.last_host = host;
        self.last_clock = clock;
    }

    fn note_sent(&mut self, payload: &Payload, copies: u64) {
        self.profile.msgs_sent += copies;
        if let Some(model) = &self.model {
            self.profile.transmit_us += model.transmission(payload.wire_len()).as_micros() * copies;
        }
        // Keep every `capture_stride`-th message; when the sample fills,
        // drop every other one and double the stride, so the sample stays
        // spread evenly over the whole run at bounded size.
        if self.sent_seen % self.capture_stride == 0 {
            if self.profile.captured.len() == CAPTURE_CAP {
                let mut keep = false;
                self.profile.captured.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.capture_stride *= 2;
            }
            if self.sent_seen % self.capture_stride == 0 {
                self.profile.captured.push(Captured {
                    from: self.log.node,
                    class: payload.class,
                    wire_len: payload.wire_len(),
                    bytes: payload.bytes.to_vec(),
                });
            }
        }
        self.sent_seen += 1;
    }
}

fn send_totals(p: &mut CallProfile) -> &mut CallTotals {
    &mut p.send
}
fn recv_totals(p: &mut CallProfile) -> &mut CallTotals {
    &mut p.recv
}
fn advance_totals(p: &mut CallProfile) -> &mut CallTotals {
    &mut p.advance
}
fn other_totals(p: &mut CallProfile) -> &mut CallTotals {
    &mut p.other
}

/// Runs `$call` on the inner endpoint, timed into `$pick` when tracing.
macro_rules! timed {
    ($self:ident, $pick:expr, $call:expr) => {{
        if $self.traced() {
            let start = $self.begin();
            let out = $call;
            $self.end(start, $pick);
            out
        } else {
            $call
        }
    }};
}

impl<E: Endpoint> Endpoint for Probe<E> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn send(&mut self, to: NodeId, payload: Payload) -> Result<(), NetError> {
        if self.traced() {
            self.note_sent(&payload, 1);
        }
        timed!(self, send_totals, self.inner.send(to, payload))
    }
    fn send_batch(&mut self, to: NodeId, payloads: Vec<Payload>) -> Result<(), NetError> {
        if self.traced() {
            for payload in &payloads {
                self.note_sent(payload, 1);
            }
        }
        timed!(self, send_totals, self.inner.send_batch(to, payloads))
    }
    fn recv(&mut self) -> Result<Incoming, NetError> {
        timed!(self, recv_totals, self.inner.recv())
    }
    fn try_recv(&mut self) -> Result<Option<Incoming>, NetError> {
        timed!(self, recv_totals, self.inner.try_recv())
    }
    fn recv_deadline(&mut self, timeout: SimSpan) -> Result<Option<Incoming>, NetError> {
        timed!(self, recv_totals, self.inner.recv_deadline(timeout))
    }
    fn advance(&mut self, dt: SimSpan) {
        if self.advances % 2 == 0 {
            self.log.host.push(Instant::now());
            self.log.clock.push(self.inner.now().as_micros());
        }
        self.advances += 1;
        timed!(self, advance_totals, self.inner.advance(dt))
    }
    fn now(&self) -> SimInstant {
        self.inner.now()
    }
    fn metrics(&self) -> NetMetricsSnapshot {
        self.inner.metrics()
    }
    fn metrics_delta(&mut self) -> NetMetricsSnapshot {
        timed!(self, other_totals, self.inner.metrics_delta())
    }
    fn attach_recorder(&mut self, recorder: Recorder) {
        timed!(self, other_totals, self.inner.attach_recorder(recorder))
    }
    fn remove_peer(&mut self, peer: NodeId) {
        timed!(self, other_totals, self.inner.remove_peer(peer))
    }
    fn add_peer(&mut self, peer: NodeId) {
        timed!(self, other_totals, self.inner.add_peer(peer))
    }
    fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        timed!(self, other_totals, self.inner.take_peer_events())
    }
    fn broadcast(&mut self, payload: &Payload) -> Result<(), NetError> {
        if self.traced() {
            let peers = self.inner.num_nodes().saturating_sub(1) as u64;
            self.note_sent(payload, peers);
        }
        timed!(self, send_totals, self.inner.broadcast(payload))
    }
}

impl<E: Endpoint> Drop for Probe<E> {
    fn drop(&mut self) {
        let mut log = NodeLog {
            node: self.log.node,
            host: std::mem::take(&mut self.log.host),
            clock: std::mem::take(&mut self.log.clock),
            profile: None,
        };
        if self.traced() {
            log.profile = Some(std::mem::take(&mut self.profile));
        }
        // A poisoned sink means another node's probe panicked mid-push;
        // the game has failed already and its logs are not used.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(log);
        }
    }
}

//! Shared cluster state: mailboxes, NIC timelines, and collective slots.
//!
//! Determinism argument (DESIGN.md §2): every timestamp is a pure function
//! of per-rank program order —
//!
//! - `send_free[r]` is only read/written under its lock by rank `r`'s
//!   own `isend`s, which occur in `r`'s program order (plus collective
//!   completions, which are synchronization points every rank agrees on);
//! - `recv_free[r]` is only touched when rank `r` *matches* messages,
//!   which happens in `r`'s program order, and multi-message waits sort by
//!   `(ready_at, src)` before serializing;
//! - collectives synchronize on a per-call-index slot, so their inputs are
//!   a complete, order-independent set.
//!
//! Wall-clock thread scheduling therefore never changes any virtual time.
//! This argument is *independent of lock granularity*: the sharded backend
//! below splits the historical single `Mutex<Inner>` into per-pair mailbox
//! cells, per-rank NIC cells, and per-rank wakeup condvars (so a send to
//! rank 3 never wakes rank 7), while the single-lock backend preserves the
//! original structure as a differential-testing reference. Both compute the
//! identical timestamps; only contention and wakeup fan-out differ.
//!
//! ## Sharded waiting protocol (lost-wakeup freedom)
//!
//! Each rank owns a wakeup cell `(epoch: Mutex<u64>, cond: Condvar)`. A
//! receiver snapshots the epoch, scans its mailboxes, and — only if empty —
//! re-locks the epoch and blocks *iff the epoch is unchanged*. A depositor
//! pushes the message first, then bumps the destination's epoch under its
//! lock and signals. Any deposit racing the scan either lands before the
//! scan (found) or bumps the epoch (no block). Messages are only ever
//! *removed* by their destination rank, so a satisfied scan can never be
//! invalidated before the pop.

use crate::message::{InFlight, MsgKey};
use crate::model::NetworkModel;
use crate::time::SimTime;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Wall-clock guard against deadlocked simulated programs (mismatched
/// send/recv, missing collective participation). Generous: simulations are
/// CPU-bound and finish in milliseconds. Only the blocking (thread-per-
/// rank) paths need it — the resumable scheduler detects deadlock exactly,
/// by quiescence, with no timer (see `sched.rs`).
pub(crate) const DEADLOCK_TIMEOUT: Duration = Duration::from_secs(30);

/// What a state-change notification is about, for the resumable scheduler:
/// a deposit concerns exactly one destination rank; collective completion,
/// poisoning, and deadlock concern everyone still parked.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WakeEvent {
    One(usize),
    All,
}

/// Callback the resumable cluster installs to requeue parked ranks when
/// shared state changes. Unset (and free) in thread-per-rank mode.
pub(crate) type Waker = Arc<dyn Fn(WakeEvent) + Send + Sync>;

/// Which collective a slot belongs to — calling different collectives at
/// the same call index is a program error we detect instead of deadlocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CollectiveKind {
    Alltoall,
    Barrier,
}

/// One rank's contribution to / share of a collective: its entry (or
/// completion) time and one payload per partner rank.
pub(crate) type RankShare = Option<(SimTime, Vec<Bytes>)>;

pub(crate) struct CollectiveSlot {
    pub kind: CollectiveKind,
    /// Per-rank contribution: (entry clock, payload-per-destination).
    pub inputs: Vec<RankShare>,
    pub arrived: usize,
    /// Filled by the last arriver.
    pub outputs: Option<Vec<RankShare>>,
    pub taken: usize,
}

/// One (src, dst) mailbox, in deposit order: taking the first message
/// with a tag is FIFO per tag (MPI's non-overtaking rule for identical
/// envelopes). Most of the `np * np` pairs never hold more than one
/// message at a time, so the oldest sits inline and the queue behind it
/// allocates only when a second arrives; queues are short, so a linear
/// scan beats hashing.
#[derive(Default)]
struct Channel {
    oldest: Option<(i64, InFlight)>,
    /// Everything deposited after `oldest`, which is filled only when
    /// this is empty.
    later: VecDeque<(i64, InFlight)>,
}

impl Channel {
    fn push(&mut self, tag: i64, msg: InFlight) {
        if self.oldest.is_none() && self.later.is_empty() {
            self.oldest = Some((tag, msg));
        } else {
            self.later.push_back((tag, msg));
        }
    }

    fn pop(&mut self, tag: i64) -> Option<InFlight> {
        if self.oldest.as_ref().is_some_and(|(t, _)| *t == tag) {
            return self.oldest.take().map(|(_, m)| m);
        }
        let at = self.later.iter().position(|(t, _)| *t == tag)?;
        self.later.remove(at).map(|(_, m)| m)
    }

    fn available(&self, tag: i64) -> usize {
        let tagged = |(t, _): &(i64, InFlight)| *t == tag;
        self.oldest.iter().filter(|m| tagged(m)).count()
            + self.later.iter().filter(|m| tagged(m)).count()
    }
}

/// One rank's NIC timelines — plus, for congested-family models, the
/// timelines of this rank's deterministic *share* of the contended link
/// (see `model.rs`: per-rank shares, not a cross-rank resource, so virtual
/// times stay a pure function of program order). The link fields are never
/// read or written for families without a link stage
/// (`NetworkModel::link_wire` returns `None`), which keeps the existing
/// families' arithmetic byte-identical.
#[derive(Default, Clone, Copy)]
struct Nic {
    send_free: SimTime,
    recv_free: SimTime,
    link_send_free: SimTime,
    link_recv_free: SimTime,
}

/// Per-rank wakeup cell: epoch counter + condvar (see module docs).
struct WaitCell {
    epoch: Mutex<u64>,
    cond: Condvar,
}

/// The scalable backend: state sharded so the common operations touch only
/// the cells they semantically own.
struct Sharded {
    /// `np * np` mailbox cells, indexed `src * np + dst`. A cell is locked
    /// only by its sender (deposit) and its receiver (match).
    channels: Vec<Mutex<Channel>>,
    /// Per-rank NIC timelines.
    nics: Vec<Mutex<Nic>>,
    /// Per-rank wakeup cells: a deposit to rank `d` wakes only rank `d`.
    waits: Vec<WaitCell>,
    /// Collective rendezvous is global by nature; it keeps its own lock so
    /// point-to-point traffic never contends with it.
    collectives: Mutex<HashMap<u64, CollectiveSlot>>,
    coll_cond: Condvar,
}

/// The historical single-lock backend, kept as the differential-testing
/// reference: same data structures, one global mutex, one condvar that
/// every deposit broadcasts on (the thundering herd the sharded backend
/// eliminates).
struct SingleLock {
    inner: Mutex<SingleInner>,
    cond: Condvar,
}

struct SingleInner {
    channels: Vec<Channel>,
    nics: Vec<Nic>,
    collectives: HashMap<u64, CollectiveSlot>,
}

enum Topology {
    Sharded(Sharded),
    SingleLock(SingleLock),
}

pub(crate) struct Shared {
    pub model: NetworkModel,
    pub np: usize,
    topo: Topology,
    /// Set when any rank panics, so peers blocked in waits fail fast
    /// instead of riding out the deadlock timeout.
    poisoned: AtomicBool,
    /// Set by the resumable scheduler when every live rank is parked on a
    /// poll that cannot progress (simulated deadlock, detected exactly).
    deadlocked: AtomicBool,
    /// Resumable-mode requeue hook; a no-op when unset.
    waker: OnceLock<Waker>,
}

impl Shared {
    pub fn new(np: usize, model: NetworkModel) -> Self {
        Shared {
            model,
            np,
            topo: Topology::Sharded(Sharded {
                channels: (0..np * np).map(|_| Mutex::new(Channel::default())).collect(),
                nics: (0..np).map(|_| Mutex::new(Nic::default())).collect(),
                waits: (0..np)
                    .map(|_| WaitCell {
                        epoch: Mutex::new(0),
                        cond: Condvar::new(),
                    })
                    .collect(),
                collectives: Mutex::new(HashMap::new()),
                coll_cond: Condvar::new(),
            }),
            poisoned: AtomicBool::new(false),
            deadlocked: AtomicBool::new(false),
            waker: OnceLock::new(),
        }
    }

    /// The single-global-lock reference build path (differential tests).
    pub fn new_single_lock(np: usize, model: NetworkModel) -> Self {
        Shared {
            model,
            np,
            topo: Topology::SingleLock(SingleLock {
                inner: Mutex::new(SingleInner {
                    channels: (0..np * np).map(|_| Channel::default()).collect(),
                    nics: vec![Nic::default(); np],
                    collectives: HashMap::new(),
                }),
                cond: Condvar::new(),
            }),
            poisoned: AtomicBool::new(false),
            deadlocked: AtomicBool::new(false),
            waker: OnceLock::new(),
        }
    }

    /// Install the resumable scheduler's requeue hook (once per run).
    pub fn set_waker(&self, w: Waker) {
        let _ = self.waker.set(w);
    }

    fn wake(&self, ev: WakeEvent) {
        if let Some(w) = self.waker.get() {
            w(ev);
        }
    }

    /// Mark the cluster failed (called while a rank unwinds) and wake
    /// every waiter so it can abort.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        match &self.topo {
            Topology::Sharded(s) => {
                for w in &s.waits {
                    *w.epoch.lock() += 1;
                    w.cond.notify_all();
                }
                // Notify under the collectives lock: a waiter sits between
                // its poisoned check and `wait_for` while holding it, so an
                // unsynchronized notify could be lost and the waiter would
                // ride out the full deadlock timeout.
                let _guard = s.collectives.lock();
                s.coll_cond.notify_all();
            }
            Topology::SingleLock(s) => {
                let _guard = s.inner.lock();
                s.cond.notify_all();
            }
        }
        self.wake(WakeEvent::All);
    }

    /// Resumable-mode deadlock: every live rank is parked and nothing can
    /// run. Flag it and requeue everyone, so each rank's next poll aborts
    /// with a per-rank diagnostic instead of hanging.
    pub fn mark_deadlocked(&self) {
        self.deadlocked.store(true, Ordering::SeqCst);
        self.wake(WakeEvent::All);
    }

    fn check_poisoned(&self) {
        if self.poisoned.load(Ordering::SeqCst) {
            panic!("aborted: another rank failed");
        }
    }

    /// Poll-path abort check: peers' panics and exact deadlock detection
    /// both surface here, at the same points the blocking paths check
    /// `check_poisoned` or time out.
    pub fn check_aborts(&self, rank: usize, what: &str) {
        self.check_poisoned();
        if self.deadlocked.load(Ordering::SeqCst) {
            panic!("simulated deadlock: rank {rank} is parked {what} and every other rank is parked too");
        }
    }

    fn cell(&self, s: &Sharded, src: usize, dst: usize) -> usize {
        debug_assert!(src < self.np && dst < self.np && s.channels.len() == self.np * self.np);
        src * self.np + dst
    }

    /// Deposit a message already timed by the sender. Wakes only the
    /// destination rank: through the scheduler's hook when one is
    /// installed, else through the rank's wait cell. Resumable ranks park
    /// in `RankSched` and never wait on a cell, and a futex condvar makes
    /// a syscall per notify whether or not anyone waits — one per message.
    pub fn deposit(&self, key: MsgKey, msg: InFlight) {
        let waker = self.waker.get();
        match &self.topo {
            Topology::Sharded(s) => {
                let idx = self.cell(s, key.src, key.dst);
                s.channels[idx].lock().push(key.tag, msg);
                if waker.is_none() {
                    let w = &s.waits[key.dst];
                    *w.epoch.lock() += 1;
                    w.cond.notify_one();
                }
            }
            Topology::SingleLock(s) => {
                let mut inner = s.inner.lock();
                inner.channels[key.src * self.np + key.dst].push(key.tag, msg);
                drop(inner);
                if waker.is_none() {
                    s.cond.notify_all();
                }
            }
        }
        if let Some(w) = waker {
            w(WakeEvent::One(key.dst));
        }
    }

    /// Sender-side NIC booking: returns (depart, done) and advances the
    /// sender NIC timeline. `cpu_done` is the sender clock after CPU costs.
    /// Under a congested-family model the message then also occupies the
    /// sender's link share (NIC → link pipeline), so `done` — the moment
    /// the bytes have left the sender and its buffer is reusable — includes
    /// the link stage. This is the *shared* booking function: both engines
    /// (blocking calls and the `poll_*` halves) and both lock backends
    /// funnel through it, so the congestion arithmetic is identical by
    /// construction.
    pub fn book_send_nic(&self, rank: usize, cpu_done: SimTime, nbytes: usize) -> (SimTime, SimTime) {
        let wire = self.model.wire_at(rank, self.np, nbytes);
        let link = self.model.link_wire(self.np, nbytes);
        let book = |nic: &mut Nic| {
            let depart = nic.send_free.max(cpu_done);
            let mut done = depart + wire;
            nic.send_free = done;
            if let Some(lw) = link {
                let link_depart = nic.link_send_free.max(done);
                done = link_depart + lw;
                nic.link_send_free = done;
            }
            (depart, done)
        };
        match &self.topo {
            Topology::Sharded(s) => book(&mut s.nics[rank].lock()),
            Topology::SingleLock(s) => book(&mut s.inner.lock().nics[rank]),
        }
    }

    /// Receiver NIC serialization: a message *finishes* arriving no earlier
    /// than `ready_at`, and no earlier than one wire-time after the
    /// previous arrival finished (back-to-back messages from one sender hit
    /// exactly this bound, so single streams pay the wire only once).
    /// Congested-family models add a link-share drain stage *before* the
    /// NIC (link → NIC pipeline, mirroring the send side); like the send
    /// side, this function is shared by both engines and both backends.
    fn serialize_at_receiver(&self, nic: &mut Nic, dst: usize, msg: &InFlight) -> SimTime {
        let n = msg.nbytes();
        let mut floor = msg.ready_at;
        if let Some(lw) = self.model.link_wire(self.np, n) {
            floor = floor.max(nic.link_recv_free + lw);
            nic.link_recv_free = floor;
        }
        let drain = nic.recv_free + self.model.wire_at(dst, self.np, n);
        let arrival = floor.max(drain);
        nic.recv_free = arrival;
        arrival
    }

    /// Block until a message for `key` exists, pop it, and serialize it
    /// through the receiver NIC. Returns (arrival, payload).
    pub fn match_one(&self, key: MsgKey) -> (SimTime, Bytes) {
        match &self.topo {
            Topology::Sharded(s) => {
                let idx = self.cell(s, key.src, key.dst);
                let w = &s.waits[key.dst];
                loop {
                    self.check_poisoned();
                    let seen = *w.epoch.lock();
                    if let Some(msg) = s.channels[idx].lock().pop(key.tag) {
                        let arrival =
                            self.serialize_at_receiver(&mut s.nics[key.dst].lock(), key.dst, &msg);
                        return (arrival, msg.payload);
                    }
                    let mut epoch = w.epoch.lock();
                    if *epoch == seen
                        && w.cond.wait_for(&mut epoch, DEADLOCK_TIMEOUT).timed_out()
                    {
                        panic!(
                            "simulated deadlock: rank {} waited {:?} for a message from rank {} tag {} that never arrived",
                            key.dst, DEADLOCK_TIMEOUT, key.src, key.tag
                        );
                    }
                }
            }
            Topology::SingleLock(s) => {
                let mut inner = s.inner.lock();
                loop {
                    self.check_poisoned();
                    if let Some(msg) =
                        inner.channels[key.src * self.np + key.dst].pop(key.tag)
                    {
                        let arrival =
                            self.serialize_at_receiver(&mut inner.nics[key.dst], key.dst, &msg);
                        return (arrival, msg.payload);
                    }
                    if s.cond.wait_for(&mut inner, DEADLOCK_TIMEOUT).timed_out() {
                        panic!(
                            "simulated deadlock: rank {} waited {:?} for a message from rank {} tag {} that never arrived",
                            key.dst, DEADLOCK_TIMEOUT, key.src, key.tag
                        );
                    }
                }
            }
        }
    }

    /// How many of each distinct key `keys` requests (multiset need), in
    /// `(src, tag)` order: sort a scratch copy, count the runs. A parked
    /// rank re-derives this on every poll, and at np 256 its 255 pending
    /// keys made a find-per-key scan ~32 k comparisons each time. All keys
    /// share one `dst`, so `(src, tag)` is the whole identity.
    fn key_needs(keys: &[MsgKey]) -> Vec<(MsgKey, usize)> {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable_by_key(|k| (k.src, k.tag));
        let mut needs: Vec<(MsgKey, usize)> = Vec::with_capacity(sorted.len());
        for k in sorted {
            match needs.last_mut() {
                Some((last, n)) if *last == k => *n += 1,
                _ => needs.push((k, 1)),
            }
        }
        needs
    }

    /// Block until *all* keys have a message, then match them in
    /// deterministic `(ready_at, src, tag)` order through the receiver NIC.
    /// Returns arrivals/payloads in the order of `keys`.
    pub fn match_all(&self, dst: usize, keys: &[MsgKey]) -> Vec<(SimTime, Bytes)> {
        debug_assert!(keys.iter().all(|k| k.dst == dst));
        let needs = Self::key_needs(keys);

        // Phase 1: wait until every key's need is met. Messages are only
        // removed by their destination (us), so a satisfied observation
        // stays satisfied.
        match &self.topo {
            Topology::Sharded(s) => {
                let w = &s.waits[dst];
                loop {
                    self.check_poisoned();
                    let seen = *w.epoch.lock();
                    let satisfied = needs.iter().all(|(k, need)| {
                        s.channels[self.cell(s, k.src, k.dst)]
                            .lock()
                            .available(k.tag)
                            >= *need
                    });
                    if satisfied {
                        break;
                    }
                    let mut epoch = w.epoch.lock();
                    if *epoch == seen
                        && w.cond.wait_for(&mut epoch, DEADLOCK_TIMEOUT).timed_out()
                    {
                        panic!(
                            "simulated deadlock: rank {dst} waited {:?} for {} posted receives",
                            DEADLOCK_TIMEOUT,
                            keys.len()
                        );
                    }
                }
                // Phase 2: pop in posted order, then serialize in
                // deterministic (ready_at, src, tag) order.
                let popped: Vec<InFlight> = keys
                    .iter()
                    .map(|k| {
                        s.channels[self.cell(s, k.src, k.dst)]
                            .lock()
                            .pop(k.tag)
                            .expect("availability checked above")
                    })
                    .collect();
                let mut nic = s.nics[dst].lock();
                self.finish_match_all(keys, popped, &mut nic)
            }
            Topology::SingleLock(s) => {
                let mut inner = s.inner.lock();
                loop {
                    self.check_poisoned();
                    let satisfied = needs.iter().all(|(k, need)| {
                        inner.channels[k.src * self.np + k.dst].available(k.tag) >= *need
                    });
                    if satisfied {
                        break;
                    }
                    if s.cond.wait_for(&mut inner, DEADLOCK_TIMEOUT).timed_out() {
                        panic!(
                            "simulated deadlock: rank {dst} waited {:?} for {} posted receives",
                            DEADLOCK_TIMEOUT,
                            keys.len()
                        );
                    }
                }
                let popped: Vec<InFlight> = keys
                    .iter()
                    .map(|k| {
                        inner.channels[k.src * self.np + k.dst]
                            .pop(k.tag)
                            .expect("availability checked above")
                    })
                    .collect();
                let inner = &mut *inner;
                self.finish_match_all(keys, popped, &mut inner.nics[dst])
            }
        }
    }

    /// Serialize already-popped messages through the receiver NIC in
    /// `(ready_at, src, tag)` order; return (arrival, payload) in the
    /// posted order of `keys` (which pairs positionally with `popped`).
    fn finish_match_all(
        &self,
        keys: &[MsgKey],
        popped: Vec<InFlight>,
        nic: &mut Nic,
    ) -> Vec<(SimTime, Bytes)> {
        let mut order: Vec<usize> = (0..popped.len()).collect();
        order.sort_by_key(|&j| (popped[j].ready_at, keys[j].src, keys[j].tag));
        let mut arrivals = vec![SimTime::ZERO; popped.len()];
        for &j in &order {
            arrivals[j] = self.serialize_at_receiver(nic, keys[j].dst, &popped[j]);
        }
        popped
            .into_iter()
            .zip(arrivals)
            .map(|(m, arr)| (arr, m.payload))
            .collect()
    }

    /// Non-blocking [`Shared::match_all`]: if every key's need is already
    /// met, pop and serialize exactly as the blocking path would (same
    /// deterministic `(ready_at, src, tag)` order, so the arrivals are
    /// byte-identical); otherwise return `None` without touching anything.
    /// Messages are only removed by their destination — the caller — so a
    /// satisfied availability check cannot be invalidated before the pops.
    pub fn try_match_all(&self, dst: usize, keys: &[MsgKey]) -> Option<Vec<(SimTime, Bytes)>> {
        debug_assert!(keys.iter().all(|k| k.dst == dst));
        let needs = Self::key_needs(keys);
        match &self.topo {
            Topology::Sharded(s) => {
                let satisfied = needs.iter().all(|(k, need)| {
                    s.channels[self.cell(s, k.src, k.dst)]
                        .lock()
                        .available(k.tag)
                        >= *need
                });
                if !satisfied {
                    return None;
                }
                let popped: Vec<InFlight> = keys
                    .iter()
                    .map(|k| {
                        s.channels[self.cell(s, k.src, k.dst)]
                            .lock()
                            .pop(k.tag)
                            .expect("availability checked above")
                    })
                    .collect();
                let mut nic = s.nics[dst].lock();
                Some(self.finish_match_all(keys, popped, &mut nic))
            }
            Topology::SingleLock(s) => {
                let mut inner = s.inner.lock();
                let satisfied = needs.iter().all(|(k, need)| {
                    inner.channels[k.src * self.np + k.dst].available(k.tag) >= *need
                });
                if !satisfied {
                    return None;
                }
                let popped: Vec<InFlight> = keys
                    .iter()
                    .map(|k| {
                        inner.channels[k.src * self.np + k.dst]
                            .pop(k.tag)
                            .expect("availability checked above")
                    })
                    .collect();
                let inner = &mut *inner;
                Some(self.finish_match_all(keys, popped, &mut inner.nics[dst]))
            }
        }
    }

    /// Whether a collective slot for `call_idx` has been registered by any
    /// rank (test rendezvous hook — lets the mismatch test wait
    /// deterministically instead of sleeping).
    #[cfg(test)]
    pub(crate) fn collective_registered(&self, call_idx: u64) -> bool {
        match &self.topo {
            Topology::Sharded(s) => s.collectives.lock().contains_key(&call_idx),
            Topology::SingleLock(s) => s.inner.lock().collectives.contains_key(&call_idx),
        }
    }

    /// Register `rank`'s contribution to a collective. The last arriver
    /// computes the completion time, redistributes payloads, applies the
    /// alltoall NIC occupation, and wakes everyone — all under the
    /// collectives lock, so any rank that later observes the outputs (via
    /// `take_output` under the same lock) also observes the NIC updates.
    /// `call_idx` is the rank's collective sequence number; `entry` its
    /// clock at the call; `payload_per_dst` one payload per destination
    /// rank (empty vec for barriers).
    pub fn collective_begin(
        &self,
        kind: CollectiveKind,
        call_idx: u64,
        rank: usize,
        entry: SimTime,
        payload_per_dst: Vec<Bytes>,
    ) {
        let np = self.np;
        match &self.topo {
            Topology::Sharded(s) => {
                let mut colls = s.collectives.lock();
                let arrived_all =
                    Self::join_slot(&mut colls, kind, call_idx, rank, entry, payload_per_dst, np);
                if arrived_all {
                    let completion = {
                        let slot = colls.get_mut(&call_idx).expect("slot exists");
                        compute_collective(&self.model, np, kind, slot)
                    };
                    if kind == CollectiveKind::Alltoall {
                        // The exchange occupies every NIC until completion.
                        // Safe to touch peers' cells here: every rank is
                        // parked inside this same collective. Lock order is
                        // collectives -> nic, and no path acquires them in
                        // the opposite order.
                        for nic in &s.nics {
                            let mut nic = nic.lock();
                            nic.send_free = nic.send_free.max(completion);
                            nic.recv_free = nic.recv_free.max(completion);
                            nic.link_send_free = nic.link_send_free.max(completion);
                            nic.link_recv_free = nic.link_recv_free.max(completion);
                        }
                    }
                    s.coll_cond.notify_all();
                    drop(colls);
                    self.wake(WakeEvent::All);
                }
            }
            Topology::SingleLock(s) => {
                let mut inner = s.inner.lock();
                let arrived_all = Self::join_slot(
                    &mut inner.collectives,
                    kind,
                    call_idx,
                    rank,
                    entry,
                    payload_per_dst,
                    np,
                );
                if arrived_all {
                    let completion = {
                        let slot = inner.collectives.get_mut(&call_idx).expect("slot exists");
                        compute_collective(&self.model, np, kind, slot)
                    };
                    if kind == CollectiveKind::Alltoall {
                        for nic in &mut inner.nics {
                            nic.send_free = nic.send_free.max(completion);
                            nic.recv_free = nic.recv_free.max(completion);
                            nic.link_send_free = nic.link_send_free.max(completion);
                            nic.link_recv_free = nic.link_recv_free.max(completion);
                        }
                    }
                    s.cond.notify_all();
                    drop(inner);
                    self.wake(WakeEvent::All);
                }
            }
        }
    }

    /// Non-blocking collective completion check: take `rank`'s share if the
    /// last arriver has computed it. The values are whatever that single
    /// computation produced, so polling and blocking agree byte-for-byte.
    pub fn try_collective_take(&self, call_idx: u64, rank: usize) -> Option<(SimTime, Vec<Bytes>)> {
        match &self.topo {
            Topology::Sharded(s) => {
                Self::take_output(&mut s.collectives.lock(), call_idx, rank, self.np)
            }
            Topology::SingleLock(s) => {
                Self::take_output(&mut s.inner.lock().collectives, call_idx, rank, self.np)
            }
        }
    }

    /// Blocking collective rendezvous in one call: join, then wait for the
    /// last arriver. Production paths compose `collective_begin` +
    /// `collective_wait` (Comm owns the in-between state); tests use this.
    #[cfg(test)]
    pub fn collective(
        &self,
        kind: CollectiveKind,
        call_idx: u64,
        rank: usize,
        entry: SimTime,
        payload_per_dst: Vec<Bytes>,
    ) -> (SimTime, Vec<Bytes>) {
        self.collective_begin(kind, call_idx, rank, entry, payload_per_dst);
        self.collective_wait(kind, call_idx, rank)
    }

    /// Block until the collective joined at `call_idx` completes and take
    /// this rank's share (thread-per-rank mode).
    pub fn collective_wait(
        &self,
        kind: CollectiveKind,
        call_idx: u64,
        rank: usize,
    ) -> (SimTime, Vec<Bytes>) {
        let np = self.np;
        match &self.topo {
            Topology::Sharded(s) => {
                let mut colls = s.collectives.lock();
                loop {
                    self.check_poisoned();
                    if let Some(out) = Self::take_output(&mut colls, call_idx, rank, np) {
                        return out;
                    }
                    if s.coll_cond
                        .wait_for(&mut colls, DEADLOCK_TIMEOUT)
                        .timed_out()
                    {
                        panic!(
                            "simulated deadlock: rank {rank} waited {:?} in collective {call_idx} ({kind:?})",
                            DEADLOCK_TIMEOUT
                        );
                    }
                }
            }
            Topology::SingleLock(s) => {
                let mut inner = s.inner.lock();
                loop {
                    self.check_poisoned();
                    if let Some(out) =
                        Self::take_output(&mut inner.collectives, call_idx, rank, np)
                    {
                        return out;
                    }
                    if s.cond.wait_for(&mut inner, DEADLOCK_TIMEOUT).timed_out() {
                        panic!(
                            "simulated deadlock: rank {rank} waited {:?} in collective {call_idx} ({kind:?})",
                            DEADLOCK_TIMEOUT
                        );
                    }
                }
            }
        }
    }

    /// Register `rank`'s contribution; true when it was the last arriver.
    #[allow(clippy::too_many_arguments)]
    fn join_slot(
        collectives: &mut HashMap<u64, CollectiveSlot>,
        kind: CollectiveKind,
        call_idx: u64,
        rank: usize,
        entry: SimTime,
        payload_per_dst: Vec<Bytes>,
        np: usize,
    ) -> bool {
        let slot = collectives.entry(call_idx).or_insert_with(|| CollectiveSlot {
            kind,
            inputs: vec![None; np],
            arrived: 0,
            outputs: None,
            taken: 0,
        });
        assert_eq!(
            slot.kind, kind,
            "collective mismatch at call {call_idx}: rank {rank} called {kind:?}, others {:?}",
            slot.kind
        );
        assert!(
            slot.inputs[rank].is_none(),
            "rank {rank} joined collective {call_idx} twice"
        );
        slot.inputs[rank] = Some((entry, payload_per_dst));
        slot.arrived += 1;
        slot.arrived == np
    }

    /// Take `rank`'s share of a completed collective, if ready.
    fn take_output(
        collectives: &mut HashMap<u64, CollectiveSlot>,
        call_idx: u64,
        rank: usize,
        np: usize,
    ) -> Option<(SimTime, Vec<Bytes>)> {
        let slot = collectives.get_mut(&call_idx).expect("slot exists");
        let outputs = slot.outputs.as_mut()?;
        let (completion, payloads) = outputs[rank]
            .take()
            .expect("each rank takes its output once");
        slot.taken += 1;
        if slot.taken == np {
            collectives.remove(&call_idx);
        }
        Some((completion, payloads))
    }
}

/// Last arriver computes completion time and redistributes payloads.
///
/// Timing (see `model.rs` docs): all ranks synchronize at
/// `start = max(entryᵢ)`; each rank then performs `NP-1` paired
/// send+receive exchanges, fully serialized on its CPU *and* NIC (a
/// blocking alltoall exposes every cost — this is exactly the baseline the
/// pre-push transformation beats), plus one wire latency:
///
/// ```text
/// completion = start + (NP-1)·max over ranks r of
///                  (send_cpu_at(r,S) + recv_cpu_at(r,S) + bottleneck_wire(r,S)) + L
/// ```
///
/// where `bottleneck_wire` is the slower of the rank's NIC and (for
/// congested families) its link share. For uniform models every rank's
/// term is identical and the formula reduces exactly to the historical
/// `(NP-1)·(send_cpu(S) + recv_cpu(S) + wire(S))`. The slowest rank bounds
/// a synchronizing exchange, hence the max — the heterogeneous column's
/// whole point.
fn compute_collective(
    model: &NetworkModel,
    np: usize,
    kind: CollectiveKind,
    slot: &mut CollectiveSlot,
) -> SimTime {
    let start = slot
        .inputs
        .iter()
        .map(|i| i.as_ref().expect("all arrived").0)
        .fold(SimTime::ZERO, SimTime::max);

    let completion = match kind {
        CollectiveKind::Barrier => {
            let overhead = (0..np)
                .map(|r| model.overhead_at(r, np))
                .fold(SimTime::ZERO, SimTime::max);
            start + overhead
        }
        CollectiveKind::Alltoall => {
            // Per-partner payload size (uniform by MPI_ALLTOALL semantics;
            // use the max for robustness).
            let s = slot
                .inputs
                .iter()
                .flat_map(|i| i.as_ref().expect("all arrived").1.iter())
                .map(Bytes::len)
                .max()
                .unwrap_or(0);
            let pairs = (np - 1) as u64;
            let per_pair = (0..np)
                .map(|r| {
                    let wire = model.effective_wire(np, s).max(model.wire_at(r, np, s));
                    model.send_cpu_at(r, np, s) + model.recv_cpu_at(r, np, s) + wire
                })
                .fold(SimTime::ZERO, SimTime::max);
            start + SimTime(per_pair.as_ns() * pairs) + model.latency
        }
    };

    // Redistribute: output[rank][src] = input[src][rank]. `Bytes` clones
    // are Arc bumps of one shared buffer, not copies.
    let mut outputs: Vec<RankShare> = Vec::with_capacity(np);
    for rank in 0..np {
        let payloads: Vec<Bytes> = match kind {
            CollectiveKind::Barrier => Vec::new(),
            CollectiveKind::Alltoall => (0..np)
                .map(|src| {
                    slot.inputs[src]
                        .as_ref()
                        .expect("all arrived")
                        .1
                        .get(rank)
                        .cloned()
                        .unwrap_or_default()
                })
                .collect(),
        };
        outputs.push(Some((completion, payloads)));
    }
    slot.outputs = Some(outputs);
    completion
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends(np: usize) -> [Shared; 2] {
        [
            Shared::new(np, NetworkModel::mpich_gm()),
            Shared::new_single_lock(np, NetworkModel::mpich_gm()),
        ]
    }

    #[test]
    fn deposit_and_match_one() {
        for s in backends(2) {
            let key = MsgKey { src: 0, dst: 1, tag: 5 };
            s.deposit(
                key,
                InFlight {
                    ready_at: SimTime(1000),
                    payload: Bytes::from(vec![1, 2, 3]),
                },
            );
            let (arrival, payload) = s.match_one(key);
            // wire(3B) ≈ 12ns under GM; arrival = max(1000, 0 + 12) = 1000.
            assert_eq!(arrival, SimTime(1000));
            assert_eq!(payload.as_ref(), &[1, 2, 3]);
        }
    }

    #[test]
    fn repeated_keys_need_one_message_each() {
        let k = |src, tag| MsgKey { src, dst: 2, tag };
        // The same envelope posted twice, not adjacently.
        let posted = [k(1, 7), k(0, 7), k(1, 7), k(1, 8)];
        assert_eq!(
            Shared::key_needs(&posted),
            vec![(k(0, 7), 1), (k(1, 7), 2), (k(1, 8), 1)]
        );
        for s in backends(3) {
            let msg = |b: u8| InFlight {
                ready_at: SimTime(100),
                payload: Bytes::from(vec![b]),
            };
            s.deposit(k(0, 7), msg(0));
            s.deposit(k(1, 8), msg(3));
            s.deposit(k(1, 7), msg(1));
            assert!(s.try_match_all(2, &posted).is_none(), "one (1, 7) short");
            s.deposit(k(1, 7), msg(2));
            let got = s.try_match_all(2, &posted).expect("every need is met");
            // Payloads come back in posted order, FIFO within an envelope.
            let bytes: Vec<u8> = got.iter().map(|(_, p)| p[0]).collect();
            assert_eq!(bytes, vec![1, 0, 2, 3]);
        }
    }

    #[test]
    fn receiver_nic_serializes_incast() {
        for s in backends(3) {
            let n = 1000usize; // wire = 4000ns under GM
            for src in [0usize, 1] {
                s.deposit(
                    MsgKey { src, dst: 2, tag: 1 },
                    InFlight {
                        ready_at: SimTime(10_000),
                        payload: Bytes::from(vec![0u8; n]),
                    },
                );
            }
            let out = s.match_all(
                2,
                &[
                    MsgKey { src: 0, dst: 2, tag: 1 },
                    MsgKey { src: 1, dst: 2, tag: 1 },
                ],
            );
            // First (by src tiebreak) arrives at max(10_000, 0+4000)=10_000;
            // second at max(10_000, 10_000+4000)=14_000.
            assert_eq!(out[0].0, SimTime(10_000));
            assert_eq!(out[1].0, SimTime(14_000));
        }
    }

    #[test]
    fn back_to_back_single_stream_not_double_charged() {
        for s in backends(2) {
            let n = 1000usize; // wire 4000ns
            // Sender NIC spaced these at 4000ns already.
            for (i, ready) in [(0u8, 14_000u64), (1, 18_000)] {
                s.deposit(
                    MsgKey { src: 0, dst: 1, tag: i as i64 },
                    InFlight {
                        ready_at: SimTime(ready),
                        payload: Bytes::from(vec![i; n]),
                    },
                );
            }
            let (a1, _) = s.match_one(MsgKey { src: 0, dst: 1, tag: 0 });
            let (a2, _) = s.match_one(MsgKey { src: 0, dst: 1, tag: 1 });
            assert_eq!(a1, SimTime(14_000));
            assert_eq!(a2, SimTime(18_000)); // no extra receiver penalty
        }
    }

    #[test]
    fn fifo_within_key() {
        for s in backends(2) {
            let key = MsgKey { src: 0, dst: 1, tag: 0 };
            for v in [10u8, 20] {
                s.deposit(
                    key,
                    InFlight {
                        ready_at: SimTime(v as u64),
                        payload: Bytes::from(vec![v]),
                    },
                );
            }
            assert_eq!(s.match_one(key).1.as_ref(), &[10]);
            assert_eq!(s.match_one(key).1.as_ref(), &[20]);
        }
    }

    #[test]
    fn book_send_nic_serializes() {
        for s in backends(2) {
            let (d1, f1) = s.book_send_nic(0, SimTime(100), 1000);
            assert_eq!(d1, SimTime(100));
            assert_eq!(f1, SimTime(4100));
            // Second send posted earlier in CPU time still queues behind.
            let (d2, f2) = s.book_send_nic(0, SimTime(50), 500);
            assert_eq!(d2, SimTime(4100));
            assert_eq!(f2, SimTime(6100));
        }
    }

    #[test]
    fn collective_barrier_synchronizes_clocks() {
        for shared in backends(3) {
            let s = std::sync::Arc::new(shared);
            let entries = [SimTime(100), SimTime(5000), SimTime(300)];
            let mut handles = Vec::new();
            for (r, e) in entries.into_iter().enumerate() {
                let s = s.clone();
                handles.push(std::thread::spawn(move || {
                    s.collective(CollectiveKind::Barrier, 0, r, e, Vec::new())
                        .0
                }));
            }
            let done: Vec<SimTime> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let expect = SimTime(5000) + NetworkModel::mpich_gm().overhead;
            assert!(done.iter().all(|&t| t == expect));
        }
    }

    #[test]
    fn collective_alltoall_redistributes() {
        for shared in backends(2) {
            let s = std::sync::Arc::new(shared);
            let mk = |r: usize| -> Vec<Bytes> {
                vec![
                    Bytes::from(vec![(10 * r) as u8]),
                    Bytes::from(vec![(10 * r + 1) as u8]),
                ]
            };
            let mut handles = Vec::new();
            for r in 0..2 {
                let s = s.clone();
                let payload = mk(r);
                handles.push(std::thread::spawn(move || {
                    s.collective(CollectiveKind::Alltoall, 0, r, SimTime(0), payload)
                        .1
                }));
            }
            let outs: Vec<Vec<Bytes>> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            // rank 0 receives input[src][0]: [0], [10]
            assert_eq!(outs[0][0].as_ref(), &[0]);
            assert_eq!(outs[0][1].as_ref(), &[10]);
            // rank 1 receives input[src][1]: [1], [11]
            assert_eq!(outs[1][0].as_ref(), &[1]);
            assert_eq!(outs[1][1].as_ref(), &[11]);
        }
    }

    #[test]
    #[should_panic(expected = "collective mismatch")]
    fn collective_kind_mismatch_detected() {
        let s = std::sync::Arc::new(Shared::new(2, NetworkModel::mpich_gm()));
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            s2.collective(CollectiveKind::Alltoall, 0, 1, SimTime(0), vec![Bytes::new(); 2])
        });
        // Deterministic rendezvous: wait until the other thread registered
        // the slot (no wall-clock sleep), then join with the wrong kind.
        while !s.collective_registered(0) {
            std::thread::yield_now();
        }
        let _ = s.collective(CollectiveKind::Barrier, 0, 0, SimTime(0), Vec::new());
        let _ = h.join();
    }

    /// The sharded and single-lock backends book identical timestamps for
    /// an interleaved point-to-point pattern.
    #[test]
    fn backends_agree_on_timestamps() {
        let run = |s: Shared| -> Vec<SimTime> {
            let mut out = Vec::new();
            let (_, f1) = s.book_send_nic(0, SimTime(100), 1000);
            s.deposit(
                MsgKey { src: 0, dst: 1, tag: 0 },
                InFlight { ready_at: f1, payload: Bytes::from(vec![1u8; 1000]) },
            );
            let (_, f2) = s.book_send_nic(0, SimTime(200), 500);
            s.deposit(
                MsgKey { src: 0, dst: 1, tag: 1 },
                InFlight { ready_at: f2, payload: Bytes::from(vec![2u8; 500]) },
            );
            out.push(s.match_one(MsgKey { src: 0, dst: 1, tag: 0 }).0);
            out.push(s.match_one(MsgKey { src: 0, dst: 1, tag: 1 }).0);
            out
        };
        let [a, b] = backends(2);
        assert_eq!(run(a), run(b));
    }
}

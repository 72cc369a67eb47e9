//! Destination-side packet queues; every deposit signals the mailbox's [`Notify`].
//!
//! Every push takes one route: its `(context_id, src)` channel's lane, an
//! unbounded [`GrowRing`] with a single producer and a single consumer.
//!
//! - **Producer.** A push holds the lane's producer claim from its ticket to
//!   its last ring store. The sender's context gate already makes a channel
//!   single-producer; the claim keeps that true when a VCI policy maps two
//!   source threads onto one channel — the second waits for the first.
//!   Nothing inside the claim yields or blocks.
//! - **Consumer.** The owning VCI's progress engine drains. The drain lock
//!   serializes drainers, so each ring has one consumer.
//! - **Order.** A mailbox-global ticket, taken under the claim, stamps each
//!   push. The drain pops every lane and merges the batch by ticket, which
//!   reproduces the single-queue push order: per-channel FIFO and
//!   cross-channel order both hold.
//! - **Directory.** Lanes are found through an open-addressed
//!   [`ChannelDir`] whose lookups are atomic loads. It doubles under its
//!   insert lock when it would pass 3/4 full, so any number of channels get
//!   lanes.
//! - **Full rings.** A full ring grows (the producer links a successor of
//!   twice the capacity) instead of spilling anywhere. Lanes therefore start
//!   small. Growths are the one slow path; they are counted per lane
//!   ([`Mailbox::ring_spills`]) and in the registry (`mailbox.ring_grows`).
//!
//! A [`FaultPlan`] armed before the first push runs inside the same route:
//! each lane applies the plan's hash-derived delays and duplicates under its
//! claim, keeps its own head-of-line floor and dedup watermark, and the
//! drain performs cross-channel reorders on the merged batch (see
//! [`fault`](crate::fault) for the invariants that survive).

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use rankmpi_obs::trace as obs;
use rankmpi_vtime::sched::{self, SchedPoint};
use rankmpi_vtime::{Counter, Nanos};

use crate::fault::{FaultCounters, FaultPlan, FaultReport};
use crate::notify::Notify;
use crate::resil::{Resil, ResilConfig};
use crate::spsc::GrowRing;
use crate::Packet;

/// Entries in a lane's first ring. Small, because a full ring grows: a
/// lane costs about 2 KB until a burst on it outgrows that.
const RING_CAPACITY: usize = 16;

/// Slots in a fresh channel directory (a power of two). The table doubles
/// whenever registering one more lane would take it past 3/4 full.
const DIR_INITIAL_SLOTS: usize = 16;

/// Spins on a busy producer claim between OS yields. A claim covers only a
/// few non-blocking stores, so it frees within a push's time unless its
/// holder's thread was descheduled — then yielding lets it run.
const CLAIM_SPINS: u32 = 64;

/// A mailbox's armed fault plan and its counters, shared by its lanes.
#[derive(Debug)]
struct Faults {
    plan: FaultPlan,
    counters: FaultCounters,
}

/// One queued packet plus the bookkeeping it was pushed with.
#[derive(Debug)]
struct Entry {
    /// Mailbox-global push ticket: the linearization point of the push. The
    /// drain merges lanes by ticket, which reconstructs single-queue push
    /// order.
    ticket: u64,
    /// Push-order receive sequence on the packet's channel (0 when no fault
    /// plan is armed — the watermark filter is bypassed entirely then).
    rseq: u64,
    /// Whether this is a spurious retransmit copy from the `resil` layer
    /// (counted separately from injected duplicate-fault copies).
    spurious: bool,
    /// Whether the fault plan reorders this packet past the preceding entry
    /// of the drain batch (see [`FaultPlan::reorders`]).
    reorder: bool,
    p: Packet,
}

impl Entry {
    fn new(ticket: u64, rseq: u64, p: Packet) -> Self {
        Entry {
            ticket,
            rseq,
            spurious: false,
            reorder: false,
            p,
        }
    }

    fn channel(&self) -> (u32, u32) {
        (self.p.header.context_id, self.p.header.src)
    }
}

/// Add one to a counter only the claim holder writes: a plain load and
/// store, no read-modify-write.
fn bump(c: &AtomicU64) {
    c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// One channel's lane: its growable ring, producer claim and counters, and
/// — when a fault plan is armed — its fault state.
///
/// The fault state follows the plan's per-channel contract. The dedup
/// filter is a *watermark*, not a set: each original packet gets a
/// push-order receive sequence number (`next_push`), copies share their
/// original's number, and the drain delivers an entry iff its number equals
/// `next_deliver` (then advances it). Ring order is push order, so every
/// original hits the watermark exactly and every copy lands strictly below
/// it. Dedup memory is one watermark per channel, flat no matter how many
/// duplicates a run injects.
#[derive(Debug)]
struct ChannelLane {
    key: (u32, u32),
    /// The mailbox's plan, copied in when the lane registers.
    faults: Option<Arc<Faults>>,
    prod: CacheLine<LaneProducer>,
    /// Delivery watermark: everything below has been delivered; a popped
    /// entry below it is a copy and is dropped. Drain lock holder only.
    next_deliver: AtomicU64,
    ring: GrowRing<Entry>,
}

/// A value on a cacheline of its own, so writes to it never invalidate a
/// neighbour another core is reading.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CacheLine<T>(T);

impl<T> std::ops::Deref for CacheLine<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// The lane state every push writes (kept on its own cacheline, so the
/// consumer's reads of the lane never contend with it).
#[derive(Debug, Default)]
struct LaneProducer {
    claim: AtomicBool,
    /// Pushes that fit the ring as it was. Kept per lane (summed by
    /// [`Mailbox::ring_pushes`]) so the hot path never writes a cacheline
    /// shared with other channels' producers.
    pushes: AtomicU64,
    /// Pushes that grew the ring.
    grows: AtomicU64,
    /// Latest faulted arrival, ns: keeps virtual arrival monotone within
    /// the channel (head-of-line delay propagation).
    floor: AtomicU64,
    /// Next receive sequence number to assign at push.
    next_push: AtomicU64,
}

impl ChannelLane {
    fn new(key: (u32, u32), faults: Option<Arc<Faults>>) -> Self {
        ChannelLane {
            key,
            faults,
            prod: CacheLine::default(),
            next_deliver: AtomicU64::new(0),
            ring: GrowRing::with_capacity(RING_CAPACITY),
        }
    }

    /// Take the producer claim, waiting out a concurrent producer.
    fn claim(&self) {
        let mut spins = 0;
        while self
            .prod
            .claim
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            spins += 1;
            if spins % CLAIM_SPINS == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn release(&self) {
        self.prod.claim.store(false, Ordering::Release);
    }

    /// Apply the fault plan to one push and queue the result: the packet,
    /// an injected duplicate, and the `resil` layer's spurious copy. The
    /// caller holds the claim. Returns whether the ring grew.
    fn push_faulted(
        &self,
        f: &Faults,
        ticket: u64,
        mut p: Packet,
        spurious: Option<Packet>,
    ) -> bool {
        let (src, seq) = (p.header.src, p.header.seq);
        let plan = &f.plan;
        // Poisoned packets are synthetic failure notifications: they bypass
        // fault perturbation (their timing is the protocol's give-up time)
        // but still take a dedup slot and respect the channel floor.
        let perturb = !p.header.is_poisoned();
        if perturb {
            // Transient NACK: one retransmit round's worth of extra latency.
            if plan.nack_prob > 0.0 && plan.unit(src, seq, 1) < plan.nack_prob {
                let before = p.arrive_at;
                p.arrive_at += plan.nack_delay;
                f.counters.bump_nack(plan.nack_delay.as_ns());
                obs::busy("fault", "nack", before, p.arrive_at, obs::ResId::NONE);
            }
            // Plain delay: uniform extra latency in [1, delay_max].
            if plan.delay_prob > 0.0 && plan.unit(src, seq, 2) < plan.delay_prob {
                let span = plan.delay_max.as_ns().max(1);
                let extra = 1 + (plan.unit(src, seq, 3) * span as f64) as u64;
                let before = p.arrive_at;
                p.arrive_at += Nanos(extra.min(span));
                f.counters.bump_delay(p.arrive_at.as_ns() - before.as_ns());
                obs::busy("fault", "delay", before, p.arrive_at, obs::ResId::NONE);
            }
            // Heavy-tail straggler: Pareto extra latency on a few packets —
            // applied before the channel clamp so per-channel FIFO survives.
            if let Some(extra) = plan.straggle_ns(src, seq) {
                let before = p.arrive_at;
                p.arrive_at += Nanos(extra);
                f.counters.bump_straggle(extra);
                obs::busy("fault", "straggler", before, p.arrive_at, obs::ResId::NONE);
            }
        }
        // Head-of-line clamp: a channel's arrivals stay monotone in virtual
        // time even when an earlier packet was delayed past this one.
        let (floor, next_push) = (&self.prod.floor, &self.prod.next_push);
        p.arrive_at = p.arrive_at.max(Nanos(floor.load(Ordering::Relaxed)));
        floor.store(p.arrive_at.as_ns(), Ordering::Relaxed);
        let rseq = next_push.load(Ordering::Relaxed);
        next_push.store(rseq + 1, Ordering::Relaxed);

        let duplicate =
            perturb && plan.duplicate_prob > 0.0 && plan.unit(src, seq, 4) < plan.duplicate_prob;
        let copy = duplicate.then(|| p.clone());
        let mut entry = Entry::new(ticket, rseq, p);
        entry.reorder =
            perturb && plan.reorder_prob > 0.0 && plan.unit(src, seq, 5) < plan.reorder_prob;
        let mut grew = self.ring.push(entry);
        // Copies share their original's ticket and dedup sequence: they
        // land below the watermark at drain and are dropped there.
        if let Some(c) = copy {
            f.counters.bump_dup_injected();
            obs::busy(
                "fault",
                "duplicate",
                c.arrive_at,
                c.arrive_at,
                obs::ResId::NONE,
            );
            grew |= self.ring.push(Entry::new(ticket, rseq, c));
        }
        if let Some(sp) = spurious {
            let mut e = Entry::new(ticket, rseq, sp);
            e.spurious = true;
            grew |= self.ring.push(e);
        }
        grew
    }

    /// Watermark dedup over this lane's freshly popped entries
    /// (`batch[start..]`, in push order): keep each original, drop and
    /// count each copy. Drain lock holder only.
    fn dedup(&self, f: &Faults, batch: &mut Vec<Entry>, start: usize) {
        let mut next = self.next_deliver.load(Ordering::Relaxed);
        let mut kept = start;
        for i in start..batch.len() {
            let (rseq, spurious) = (batch[i].rseq, batch[i].spurious);
            if rseq == next {
                next += 1;
                batch.swap(kept, i);
                kept += 1;
            } else {
                debug_assert!(rseq < next, "queued entry above the channel watermark");
                if spurious {
                    f.counters.bump_spurious_dropped();
                } else {
                    f.counters.bump_dup_dropped();
                }
            }
        }
        batch.truncate(kept);
        self.next_deliver.store(next, Ordering::Relaxed);
    }
}

/// One generation of the channel directory: an open-addressed table of
/// lane pointers plus a dense list of the same lanes in registration order
/// (what drains and emptiness scans walk). The dense list holds at most
/// 3/4 of the slot count, so probe chains always end at a null slot.
struct Table {
    slots: Box<[AtomicPtr<ChannelLane>]>,
    lanes: Box<[AtomicPtr<ChannelLane>]>,
    len: AtomicUsize,
}

impl Table {
    fn with_slots(n: usize) -> Self {
        let nulls = |n: usize| {
            (0..n)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        };
        Table {
            slots: nulls(n),
            lanes: nulls(n / 4 * 3),
            len: AtomicUsize::new(0),
        }
    }

    fn slot_of(&self, key: (u32, u32)) -> usize {
        let h = key.0.wrapping_mul(0x9E37_79B1) ^ key.1.wrapping_mul(0x85EB_CA77);
        h as usize & (self.slots.len() - 1)
    }

    /// Register `lane` under `key`, publishing it with release stores; false
    /// when the dense list is full. Insert lock holder only.
    fn try_insert(&self, key: (u32, u32), lane: *mut ChannelLane) -> bool {
        let len = self.len.load(Ordering::Relaxed);
        if len == self.lanes.len() {
            return false;
        }
        let mut i = self.slot_of(key);
        while !self.slots[i].load(Ordering::Relaxed).is_null() {
            i = (i + 1) & (self.slots.len() - 1);
        }
        self.slots[i].store(lane, Ordering::Release);
        self.lanes[len].store(lane, Ordering::Release);
        self.len.store(len + 1, Ordering::Release);
        true
    }
}

/// What the directory's insert lock guards: ownership of every lane and
/// every table generation (all freed only when the mailbox drops, which is
/// what makes handing out `&ChannelLane` and `&Table` borrows sound), and
/// the fault plan new lanes copy.
struct Owned {
    tables: Vec<Arc<Table>>,
    lanes: Vec<Arc<ChannelLane>>,
    faults: Option<Arc<Faults>>,
}

/// Lock-free channel directory.
///
/// Lookups — the per-push hot path — are atomic loads: load the current
/// table, probe linearly from the key's hash until the key or a null slot.
/// Inserts (once per channel, ever) serialize on the insert lock. A table
/// with room publishes the new lane with release stores; a full one is
/// replaced by one of twice the slots holding every lane, published with a
/// single release store of `current`. A lookup racing an insert either
/// finds the lane or misses and retries under the insert lock; a lookup on
/// a superseded table is still sound, because tables are never freed early.
struct ChannelDir {
    current: AtomicPtr<Table>,
    owned: Mutex<Owned>,
}

impl ChannelDir {
    fn new() -> Self {
        let table = Arc::new(Table::with_slots(DIR_INITIAL_SLOTS));
        ChannelDir {
            current: AtomicPtr::new(Arc::as_ptr(&table) as *mut Table),
            owned: Mutex::new(Owned {
                tables: vec![table],
                lanes: Vec::new(),
                faults: None,
            }),
        }
    }

    fn table(&self) -> &Table {
        // Safety: `current` always points at a table held by `owned.tables`,
        // which keeps every generation alive until the directory drops.
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    fn lane(&self, p: *mut ChannelLane) -> &ChannelLane {
        // Safety: only pointers to lanes held by `owned.lanes` are ever
        // published, and those lanes live until the directory drops.
        unsafe { &*p }
    }

    /// Find `key`'s lane in `table` with loads only.
    fn lookup<'a>(&'a self, table: &'a Table, key: (u32, u32)) -> Option<&'a ChannelLane> {
        let mut i = table.slot_of(key);
        loop {
            let p = table.slots[i].load(Ordering::Acquire);
            if p.is_null() {
                return None;
            }
            let lane = self.lane(p);
            if lane.key == key {
                return Some(lane);
            }
            i = (i + 1) & (table.slots.len() - 1);
        }
    }

    /// `key`'s lane, registering it on first use.
    fn get_or_insert(&self, key: (u32, u32)) -> &ChannelLane {
        if let Some(lane) = self.lookup(self.table(), key) {
            return lane;
        }
        let mut owned = self.owned.lock();
        let table = self.table();
        if let Some(lane) = self.lookup(table, key) {
            return lane;
        }
        let lane = Arc::new(ChannelLane::new(key, owned.faults.clone()));
        let p = Arc::as_ptr(&lane) as *mut ChannelLane;
        owned.lanes.push(lane);
        if !table.try_insert(key, p) {
            let bigger = Arc::new(Table::with_slots(2 * table.slots.len()));
            for l in &owned.lanes {
                let inserted = bigger.try_insert(l.key, Arc::as_ptr(l) as *mut ChannelLane);
                assert!(inserted, "a doubled table holds every lane");
            }
            self.current
                .store(Arc::as_ptr(&bigger) as *mut Table, Ordering::Release);
            owned.tables.push(bigger);
        }
        self.lane(p)
    }

    /// Registered lanes, in registration order.
    fn lanes(&self) -> impl Iterator<Item = &ChannelLane> {
        let table = self.table();
        let n = table.len.load(Ordering::Acquire);
        table.lanes[..n]
            .iter()
            .map(|p| self.lane(p.load(Ordering::Acquire)))
    }
}

impl std::fmt::Debug for ChannelDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.table();
        write!(
            f,
            "ChannelDir({} lanes, {} slots)",
            t.len.load(Ordering::Relaxed),
            t.slots.len()
        )
    }
}

/// The receive queue of one logical channel (VCI): packets deposited by
/// [`transmit`](crate::transmit), drained by the owner's progress engine.
///
/// Per-source-context FIFO order is guaranteed by the sender holding its
/// context gate across stamp+push; the mailbox itself preserves push order —
/// unless a [`FaultPlan`] is armed, in which case it may legally perturb
/// deliveries (see [`fault`](crate::fault) for the invariants that survive).
#[derive(Debug)]
pub struct Mailbox {
    /// Lazily-registered per-channel lanes (a channel appears the first
    /// time a packet is pushed on it).
    dir: ChannelDir,
    /// Global push-order tickets (see [`Entry::ticket`]) — the one shared
    /// read-modify-write on the push hot path, on a cacheline of its own.
    ticket: CacheLine<AtomicU64>,
    /// Drain serialization + reusable merge scratch. VCIs already serialize
    /// drains on the engine lock; this keeps `drain_into` safe for arbitrary
    /// callers, makes each ring single-consumer, and recycles the batch
    /// buffer (no per-drain allocation). Written by every drain, so it too
    /// gets its own cacheline.
    drain_scratch: CacheLine<Mutex<Vec<Entry>>>,
    /// Ring growths across all lanes (the registry's `mailbox.ring_grows`
    /// when built by a VCI).
    grows: Arc<Counter>,
    notify: Arc<Notify>,
    /// Reliability layer, armed alongside a lossy fault plan (see
    /// [`resil`](crate::resil)). Read-mostly: armed at most once per plan, and
    /// read on every transmit — the flag lets the common unarmed send skip
    /// the lock entirely, and armed readers share a read lock instead of
    /// serializing on a mutex.
    resil_armed: AtomicBool,
    resil: RwLock<Option<Arc<Resil>>>,
}

impl Mailbox {
    /// A mailbox that signals `notify` on every deposit.
    pub fn new(notify: Arc<Notify>) -> Self {
        Self::with_grow_counter(notify, Arc::new(Counter::new()))
    }

    /// [`new`](Self::new), counting ring growths into `grows` as well as
    /// per lane — how a VCI reports them to the registry.
    pub fn with_grow_counter(notify: Arc<Notify>, grows: Arc<Counter>) -> Self {
        Mailbox {
            dir: ChannelDir::new(),
            ticket: CacheLine(AtomicU64::new(0)),
            drain_scratch: CacheLine(Mutex::new(Vec::new())),
            grows,
            notify,
            resil_armed: AtomicBool::new(false),
            resil: RwLock::new(None),
        }
    }

    /// Arm deterministic fault injection on this mailbox. A plan with no
    /// fault class enabled disarms instead. A plan with a lossy class (drops
    /// or flaps) also arms the [`Resil`] retransmit layer — without it a
    /// lossy plan would violate MPI's no-loss contract.
    ///
    /// Arming is part of construction: each lane copies the plan when its
    /// channel registers.
    ///
    /// # Panics
    ///
    /// If a packet was already pushed.
    pub fn arm_faults(&self, plan: FaultPlan) {
        let mut owned = self.dir.owned.lock();
        assert!(
            owned.lanes.is_empty(),
            "fault plans must be armed before the mailbox's first push"
        );
        let armed_resil = plan.any_lossy();
        *self.resil.write() = armed_resil.then(|| Resil::new(plan.clone(), ResilConfig::default()));
        self.resil_armed.store(armed_resil, Ordering::Release);
        owned.faults = plan.any_enabled().then(|| {
            Arc::new(Faults {
                plan,
                counters: FaultCounters::new(),
            })
        });
    }

    /// The reliability layer, if a lossy plan is armed. One atomic load when
    /// unarmed (the common case); armed readers share a read lock.
    pub fn resil(&self) -> Option<Arc<Resil>> {
        if !self.resil_armed.load(Ordering::Acquire) {
            return None;
        }
        self.resil.read().clone()
    }

    /// Number of live per-channel dedup records: one watermark per lane of
    /// a faulted mailbox. O(channels) by construction — the regression
    /// tests assert it stays flat while thousands of duplicates flow
    /// through.
    pub fn dedup_entries(&self) -> usize {
        let owned = self.dir.owned.lock();
        if owned.faults.is_some() {
            owned.lanes.len()
        } else {
            0
        }
    }

    /// Counts of faults injected so far, if a plan is armed.
    pub fn fault_report(&self) -> Option<FaultReport> {
        let owned = self.dir.owned.lock();
        owned.faults.as_ref().map(|f| f.counters.report())
    }

    /// Capacity of a lane's first ring, for tests that want to construct
    /// bursts that provably grow it.
    pub fn ring_capacity() -> usize {
        RING_CAPACITY
    }

    /// Pushes that fit their lane's ring as it was. Summed from per-lane
    /// counters, so reading it is O(channels) — the hot path never pays for
    /// it. Together with [`ring_spills`](Self::ring_spills) it counts every
    /// push.
    pub fn ring_pushes(&self) -> u64 {
        self.dir
            .lanes()
            .map(|l| l.prod.pushes.load(Ordering::Relaxed))
            .sum()
    }

    /// Pushes that found their lane's ring full and grew it (the push's
    /// entries went into the new, larger ring).
    pub fn ring_spills(&self) -> u64 {
        self.dir
            .lanes()
            .map(|l| l.prod.grows.load(Ordering::Relaxed))
            .sum()
    }

    /// Deposit a packet (called by the sending thread) and wake the receiver.
    pub fn push(&self, p: Packet) {
        self.push_with_spurious(p, None);
    }

    /// Deposit a packet together with an optional spurious retransmit copy
    /// from the `resil` layer. The pair is pushed under one producer claim,
    /// so the copy shares the original's dedup sequence number even when
    /// other senders race onto the same channel — the copy is then
    /// guaranteed to land below the watermark and be dropped at drain.
    pub fn push_with_spurious(&self, p: Packet, spurious: Option<Packet>) {
        self.push_quiet(p, spurious);
        self.notify.notify();
    }

    /// [`push_with_spurious`](Self::push_with_spurious) without the wakeup —
    /// the batched injection path pushes N packets and notifies once.
    pub fn push_quiet(&self, p: Packet, spurious: Option<Packet>) {
        sched::yield_point(SchedPoint::MailboxPush);
        let lane = self.dir.get_or_insert((p.header.context_id, p.header.src));
        lane.claim();
        // Taken under the claim, so ticket order within a lane is ring order.
        let ticket = self.ticket.fetch_add(1, Ordering::Relaxed);
        let grew = match &lane.faults {
            // A spurious copy only exists when resil is armed, which implies
            // an armed plan; without the dedup filter it is discarded
            // rather than delivered twice.
            None => lane.ring.push(Entry::new(ticket, 0, p)),
            Some(f) => lane.push_faulted(f, ticket, p, spurious),
        };
        let counter = if grew {
            &lane.prod.grows
        } else {
            &lane.prod.pushes
        };
        bump(counter);
        lane.release();
        if grew {
            self.grows.incr();
        }
    }

    /// Drain all queued packets, in push order, into `out`. Returns how
    /// many were delivered (injected duplicate and spurious-retransmit
    /// copies are dropped here, not delivered).
    pub fn drain_into(&self, out: &mut Vec<Packet>) -> usize {
        sched::yield_point(SchedPoint::MailboxDrain);
        let mut batch = self.drain_scratch.lock();
        batch.clear();
        let mut faults = None;
        for lane in self.dir.lanes() {
            let start = batch.len();
            lane.ring.pop_all_into(&mut batch);
            if let Some(f) = &lane.faults {
                lane.dedup(f, &mut batch, start);
                faults = Some(f);
            }
        }
        batch.sort_by_key(|e| e.ticket);
        if let Some(f) = faults {
            reorder(f, &mut batch);
        }
        let n = batch.len();
        out.extend(batch.drain(..).map(|e| e.p));
        n
    }

    /// Whether the queue is currently empty — the progress engine's fast
    /// path: a few ring-index loads per registered channel, no locks, no
    /// stores.
    pub fn is_empty(&self) -> bool {
        self.dir.lanes().all(|l| l.ring.is_empty())
    }

    /// Number of queued packets (including any not-yet-dropped duplicates).
    /// Racy under concurrent pushes; exact when quiescent.
    pub fn len(&self) -> usize {
        self.dir.lanes().map(|l| l.ring.len()).sum()
    }

    /// The notifier this mailbox signals.
    pub fn notify_handle(&self) -> Arc<Notify> {
        Arc::clone(&self.notify)
    }
}

/// Cross-channel reorder faults on a ticket-merged drain batch: a flagged
/// entry swaps with its predecessor iff that belongs to a different channel
/// (same-channel real order is the transport's non-overtaking guarantee and
/// must survive).
fn reorder(f: &Faults, batch: &mut [Entry]) {
    for i in 1..batch.len() {
        if batch[i].reorder && batch[i - 1].channel() != batch[i].channel() {
            batch.swap(i - 1, i);
            f.counters.bump_reorder();
            let at = batch[i - 1].p.arrive_at;
            obs::busy("fault", "reorder", at, at, obs::ResId::NONE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Header;
    use bytes::Bytes;
    use rankmpi_vtime::Nanos;
    use std::collections::HashMap;
    use std::time::Duration;

    fn pkt(seq: u64) -> Packet {
        Packet {
            header: Header {
                seq,
                ..Header::zeroed()
            },
            payload: Bytes::new(),
            arrive_at: Nanos(seq),
        }
    }

    fn pkt_on(ctx: u32, src: u32, seq: u64, at: u64) -> Packet {
        Packet {
            header: Header {
                context_id: ctx,
                src,
                seq,
                ..Header::zeroed()
            },
            payload: Bytes::new(),
            arrive_at: Nanos(at),
        }
    }

    #[test]
    fn drain_preserves_push_order() {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        for s in 0..5 {
            mb.push(pkt(s));
        }
        assert_eq!(mb.len(), 5);
        let mut out = Vec::new();
        assert_eq!(mb.drain_into(&mut out), 5);
        assert!(mb.is_empty());
        let seqs: Vec<u64> = out.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drain_merges_channels_in_push_order() {
        // Interleave three channels; the ring merge must reproduce global
        // push order, not just per-channel order.
        let mb = Mailbox::new(Arc::new(Notify::new()));
        let mut expect = Vec::new();
        for i in 0..30u64 {
            let src = (i % 3) as u32;
            mb.push(pkt_on(1, src, i, i));
            expect.push((src, i));
        }
        let mut out = Vec::new();
        assert_eq!(mb.drain_into(&mut out), 30);
        let got: Vec<(u32, u64)> = out.iter().map(|p| (p.header.src, p.header.seq)).collect();
        assert_eq!(got, expect);
        assert_eq!(mb.ring_pushes(), 30);
        assert_eq!(mb.ring_spills(), 0);
    }

    #[test]
    fn full_ring_grows_and_keeps_order() {
        // Push far beyond the first ring's capacity without draining: the
        // lane grows instead of spilling; a later drain must still see exact
        // push order, and the grown ring then absorbs the same burst.
        let grows = Arc::new(Counter::new());
        let mb = Mailbox::with_grow_counter(Arc::new(Notify::new()), Arc::clone(&grows));
        let n = 4 * RING_CAPACITY as u64;
        for seq in 0..n {
            mb.push(pkt_on(1, 0, seq, seq));
        }
        // 16 → 32 → 64: two growths hold 64 entries.
        assert_eq!(mb.ring_spills(), 2, "a burst of 4x capacity grows twice");
        assert_eq!(grows.get(), 2, "growths reach the shared counter");
        assert_eq!(mb.ring_pushes() + mb.ring_spills(), n);
        let mut out = Vec::new();
        assert_eq!(mb.drain_into(&mut out), n as usize);
        let seqs: Vec<u64> = out.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>());
        for seq in 0..n {
            mb.push(pkt_on(1, 0, seq, seq));
        }
        assert_eq!(mb.ring_spills(), 2, "the grown ring holds the burst");
        out.clear();
        assert_eq!(mb.drain_into(&mut out), n as usize);
        // Wraparound: repeated small bursts reuse the ring slots.
        for round in 0..10 {
            for seq in 0..8 {
                mb.push(pkt_on(1, 0, round * 8 + seq, seq));
            }
            out.clear();
            assert_eq!(mb.drain_into(&mut out), 8);
        }
        assert!(mb.is_empty());
    }

    #[test]
    fn directory_grows_past_its_first_table() {
        // Far more channels than the first table holds: every one gets a
        // lane, lookups still find every lane after each doubling, and the
        // merged drain keeps global push order.
        let mb = Mailbox::new(Arc::new(Notify::new()));
        let channels = 40 * DIR_INITIAL_SLOTS as u32;
        let mut expect = Vec::new();
        for round in 0..3u64 {
            for src in 0..channels {
                mb.push(pkt_on(src % 3, src, round, round));
                expect.push((src, round));
            }
        }
        assert_eq!(mb.ring_pushes(), 3 * channels as u64);
        assert_eq!(mb.ring_spills(), 0, "no push may grow a ring here");
        assert_eq!(mb.len(), 3 * channels as usize);
        let mut out = Vec::new();
        mb.drain_into(&mut out);
        let got: Vec<(u32, u64)> = out.iter().map(|p| (p.header.src, p.header.seq)).collect();
        assert_eq!(got, expect);
        assert!(mb.is_empty());
    }

    #[test]
    fn concurrent_producers_preserve_per_channel_fifo() {
        // Four producer threads on four distinct channels against one
        // drainer: nothing lost, per-channel order exact.
        let mb = Arc::new(Mailbox::new(Arc::new(Notify::new())));
        let n_per = 5_000u64;
        let producers: Vec<_> = (0..4u32)
            .map(|src| {
                let mb = Arc::clone(&mb);
                std::thread::spawn(move || {
                    for seq in 0..n_per {
                        mb.push(pkt_on(7, src, seq, seq));
                    }
                })
            })
            .collect();
        let mut out = Vec::new();
        let mut got = 0usize;
        while got < 4 * n_per as usize {
            got += mb.drain_into(&mut out);
        }
        for t in producers {
            t.join().unwrap();
        }
        assert!(mb.is_empty());
        let mut next = [0u64; 4];
        for p in &out {
            let s = p.header.src as usize;
            assert_eq!(p.header.seq, next[s], "channel {s} FIFO violated");
            next[s] += 1;
        }
        assert_eq!(next, [n_per; 4]);
    }

    #[test]
    fn racing_producers_on_one_channel_lose_nothing() {
        // Two threads violating the one-producer-per-channel assumption: the
        // claim must make the second wait, not corrupt the ring. Every
        // packet is delivered exactly once, and each thread's packets stay
        // in its push order.
        let mb = Arc::new(Mailbox::new(Arc::new(Notify::new())));
        let n_per = 5_000u64;
        let producers: Vec<_> = (0..2)
            .map(|half| {
                let mb = Arc::clone(&mb);
                std::thread::spawn(move || {
                    for seq in 0..n_per {
                        mb.push(pkt_on(7, 0, half * n_per + seq, seq));
                    }
                })
            })
            .collect();
        for t in producers {
            t.join().unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(mb.drain_into(&mut out), 2 * n_per as usize);
        let mut next = [0, n_per];
        for p in &out {
            let half = (p.header.seq / n_per) as usize;
            assert_eq!(p.header.seq, next[half], "thread {half} reordered");
            next[half] += 1;
        }
        assert_eq!(next, [n_per, 2 * n_per]);
    }

    #[test]
    fn push_bumps_notify_version() {
        let n = Arc::new(Notify::new());
        let mb = Mailbox::new(Arc::clone(&n));
        let v0 = n.version();
        mb.push(pkt(0));
        assert_eq!(n.version(), v0 + 1);
    }

    #[test]
    fn quiet_push_defers_notification() {
        let n = Arc::new(Notify::new());
        let mb = Mailbox::new(Arc::clone(&n));
        let v0 = n.version();
        mb.push_quiet(pkt(0), None);
        mb.push_quiet(pkt(1), None);
        assert_eq!(n.version(), v0, "quiet pushes do not notify");
        mb.notify_handle().notify();
        assert_eq!(n.version(), v0 + 1, "one batch, one notification");
        let mut out = Vec::new();
        assert_eq!(mb.drain_into(&mut out), 2);
    }

    #[test]
    fn faulted_mailbox_keeps_channel_arrivals_monotone() {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        mb.arm_faults(FaultPlan::chaos(0xFA11));
        for seq in 0..200 {
            mb.push(pkt_on(1, 0, seq, 10 * seq));
            mb.push(pkt_on(1, 1, seq, 10 * seq));
        }
        let mut out = Vec::new();
        mb.drain_into(&mut out);
        let mut last: HashMap<(u32, u32), (Nanos, u64)> = HashMap::new();
        for p in &out {
            let chan = (p.header.context_id, p.header.src);
            if let Some((at, seq)) = last.insert(chan, (p.arrive_at, p.header.seq)) {
                assert!(p.arrive_at >= at, "channel arrival went backwards");
                assert!(p.header.seq > seq, "channel real order was swapped");
            }
        }
    }

    #[test]
    fn faulted_mailbox_delivers_each_packet_exactly_once() {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        mb.arm_faults(FaultPlan::new(7).duplicates(0.5));
        let n = 200;
        for seq in 0..n {
            mb.push(pkt_on(1, 0, seq, 10 * seq));
        }
        let report = mb.fault_report().unwrap();
        assert!(report.dups_injected > 0, "seed must inject some duplicates");
        assert_eq!(mb.len() as u64, n + report.dups_injected);
        let mut out = Vec::new();
        let delivered = mb.drain_into(&mut out) as u64;
        assert_eq!(delivered, n, "dedup must drop every duplicate copy");
        let report = mb.fault_report().unwrap();
        assert_eq!(report.dups_dropped, report.dups_injected);
        let mut seqs: Vec<u64> = out.iter().map(|p| p.header.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn dedup_memory_stays_flat_over_ten_thousand_dups() {
        // Regression: the dedup filter used to be a grow-forever
        // (src, seq) set; it is now a per-channel watermark. 10k packets on
        // two channels with ~100% duplication must leave exactly two dedup
        // records, and every copy must still be dropped.
        let mb = Mailbox::new(Arc::new(Notify::new()));
        mb.arm_faults(FaultPlan::new(21).duplicates(1.0));
        let n = 10_000u64;
        let mut out = Vec::new();
        let mut delivered = 0;
        for seq in 0..n {
            mb.push(pkt_on(1, 0, seq, seq));
            mb.push(pkt_on(1, 1, seq, seq));
            if seq % 64 == 0 {
                delivered += mb.drain_into(&mut out);
                out.clear();
            }
        }
        delivered += mb.drain_into(&mut out);
        assert_eq!(delivered as u64, 2 * n, "every original delivered once");
        let report = mb.fault_report().unwrap();
        assert_eq!(report.dups_injected, 2 * n, "prob 1.0 duplicates all");
        assert_eq!(report.dups_dropped, report.dups_injected);
        assert_eq!(
            mb.dedup_entries(),
            2,
            "dedup memory must be O(channels), not O(messages)"
        );
    }

    #[test]
    fn spurious_copies_are_dropped_and_counted_separately() {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        mb.arm_faults(FaultPlan::new(5).delays(0.2, Nanos(100)));
        for seq in 0..50 {
            let p = pkt_on(1, 0, seq, 10 * seq);
            let spur = (seq % 3 == 0).then(|| p.clone());
            mb.push_with_spurious(p, spur);
        }
        let mut out = Vec::new();
        let delivered = mb.drain_into(&mut out);
        assert_eq!(delivered, 50, "spurious copies must not be delivered");
        let report = mb.fault_report().unwrap();
        assert_eq!(report.spurious_dropped, 17);
        assert_eq!(report.dups_dropped, 0, "spurious != duplicate-fault");
    }

    #[test]
    fn lossy_plan_arms_the_resil_layer() {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        assert!(mb.resil().is_none());
        mb.arm_faults(FaultPlan::lossy(1));
        assert!(mb.resil().is_some());
        mb.arm_faults(FaultPlan::chaos(1));
        assert!(mb.resil().is_none(), "chaos has no lossy class");
    }

    #[test]
    fn fault_decisions_are_schedule_independent() {
        // Two mailboxes with the same plan see the same packets in different
        // real orders; per-packet outcomes (final arrival stamps) agree.
        let plan = FaultPlan::new(3)
            .delays(0.5, Nanos(500))
            .nacks(0.3, Nanos(900));
        let (a, b) = (
            Mailbox::new(Arc::new(Notify::new())),
            Mailbox::new(Arc::new(Notify::new())),
        );
        a.arm_faults(plan.clone());
        b.arm_faults(plan);
        // Interleave channels differently; per-channel order must hold.
        for seq in 0..50 {
            a.push(pkt_on(1, 0, seq, 100 * seq));
            a.push(pkt_on(1, 1, seq, 100 * seq));
        }
        for seq in 0..50 {
            b.push(pkt_on(1, 1, seq, 100 * seq));
        }
        for seq in 0..50 {
            b.push(pkt_on(1, 0, seq, 100 * seq));
        }
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        a.drain_into(&mut oa);
        b.drain_into(&mut ob);
        let stamps = |v: &[Packet]| {
            let mut m: Vec<((u32, u64), Nanos)> = v
                .iter()
                .map(|p| ((p.header.src, p.header.seq), p.arrive_at))
                .collect();
            m.sort();
            m
        };
        assert_eq!(stamps(&oa), stamps(&ob));
    }

    #[test]
    fn waiter_is_woken_by_push() {
        let n = Arc::new(Notify::new());
        let mb = Arc::new(Mailbox::new(Arc::clone(&n)));
        let n2 = Arc::clone(&n);
        // No sleep needed for correctness: wait_past re-checks the version
        // under the lock, so whichever side runs first, the waiter returns
        // once the push has happened. (The deterministic-interleaving
        // version of this test lives in the rankmpi-check conformance
        // suite, which drives both orders explicitly.)
        let t = std::thread::spawn(move || {
            let mut seen = 0;
            loop {
                let v = n2.wait_past(seen, Duration::from_secs(30));
                if v > 0 {
                    return v;
                }
                seen = v;
            }
        });
        mb.push(pkt(1));
        assert!(t.join().unwrap() >= 1);
    }

    #[test]
    #[should_panic(expected = "before the mailbox's first push")]
    fn arming_after_a_push_is_refused() {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        mb.push(pkt(0));
        mb.arm_faults(FaultPlan::chaos(1));
    }

    #[test]
    fn reorders_swap_only_across_channels_in_the_drain_batch() {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        mb.arm_faults(FaultPlan::new(9).reorders(0.5));
        for seq in 0..100 {
            mb.push(pkt_on(1, 0, seq, seq));
            mb.push(pkt_on(1, 1, seq, seq));
            mb.push(pkt_on(1, 1, 1000 + seq, seq));
        }
        let mut out = Vec::new();
        assert_eq!(mb.drain_into(&mut out), 300);
        let report = mb.fault_report().unwrap();
        assert!(report.reorders > 0, "seed must reorder something");
        let pushed: Vec<(u32, u64)> = (0..100)
            .flat_map(|s| [(0, s), (1, s), (1, 1000 + s)])
            .collect();
        let got: Vec<(u32, u64)> = out.iter().map(|p| (p.header.src, p.header.seq)).collect();
        assert_ne!(got, pushed, "reordered batch kept push order");
        for src in 0..2 {
            let chan =
                |v: &[(u32, u64)]| v.iter().filter(|c| c.0 == src).copied().collect::<Vec<_>>();
            assert_eq!(chan(&got), chan(&pushed), "channel {src} reordered");
        }
    }
}

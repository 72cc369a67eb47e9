//! Property tests pinning the mailbox to a reference model.
//!
//! The model of an unfaulted mailbox is one FIFO queue: in a
//! single-threaded script of pushes (arbitrary channels, bursts far past
//! the first ring's capacity, so wraparound and ring growth both trigger)
//! interleaved with drains at arbitrary points, every drain delivers exactly
//! the packets pushed since the previous one, in push order.
//!
//! With a fault plan armed the delivery order may legally change across
//! channels, so the faulted property checks the plan's contract instead:
//! exactly-once delivery, per-channel FIFO with monotone arrival stamps, and
//! per-packet stamps that do not depend on how the channels' pushes were
//! interleaved.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use rankmpi_fabric::{FaultPlan, Header, Mailbox, Notify, Packet};
use rankmpi_vtime::Nanos;

/// One scripted step: push on a small channel id, or drain everything.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// `(context_id selector, src selector)` — 2×4 = 8 possible channels.
    Push(u8, u8),
    Drain,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Pushes dominate so per-channel bursts between drains regularly
        // grow deep enough to wrap or grow the ring.
        8 => (0u8..2, 0u8..4).prop_map(|(c, s)| Op::Push(c, s)),
        1 => Just(Op::Drain),
    ]
}

/// `(context_id, src, seq)`: a packet's identity. `seq` counts per channel,
/// as a sender's sequence numbers do.
type Id = (u32, u32, u64);

fn packet((ctx, src, seq): Id) -> Packet {
    Packet {
        header: Header {
            kind: 1,
            context_id: ctx,
            src,
            dst: 0,
            tag: 0,
            seq,
            aux: 0,
            aux2: 0,
        },
        payload: bytes::Bytes::new(),
        arrive_at: Nanos(100 * seq),
    }
}

/// Run the script (with a final drain), returning each drain's deliveries.
fn run(mb: &Mailbox, ops: &[Op]) -> Vec<Vec<Packet>> {
    let mut seqs: HashMap<(u32, u32), u64> = HashMap::new();
    let mut drains = Vec::new();
    for op in ops.iter().chain([&Op::Drain]) {
        match *op {
            Op::Push(c, s) => {
                let chan = (c as u32, s as u32);
                let seq = seqs.entry(chan).or_default();
                mb.push(packet((chan.0, chan.1, *seq)));
                *seq += 1;
            }
            Op::Drain => {
                let mut out = Vec::new();
                mb.drain_into(&mut out);
                drains.push(out);
            }
        }
    }
    drains
}

fn ids(v: &[Packet]) -> Vec<Id> {
    v.iter()
        .map(|p| (p.header.context_id, p.header.src, p.header.seq))
        .collect()
}

/// The reference model: each drain delivers what was pushed since the last
/// one, in push order.
fn model(ops: &[Op]) -> Vec<Vec<Id>> {
    let mut seqs: HashMap<(u32, u32), u64> = HashMap::new();
    let mut drains = vec![Vec::new()];
    for op in ops {
        match *op {
            Op::Push(c, s) => {
                let chan = (c as u32, s as u32);
                let seq = seqs.entry(chan).or_default();
                drains.last_mut().unwrap().push((chan.0, chan.1, *seq));
                *seq += 1;
            }
            Op::Drain => drains.push(Vec::new()),
        }
    }
    drains
}

/// Ring growths a single-channel script of drained bursts must cause: a
/// burst that outruns the current ring links rings of twice the size until
/// it fits, and the consumer ends each drain on the newest ring.
fn expected_growths(bursts: &[usize]) -> u64 {
    let mut cap = Mailbox::ring_capacity();
    let mut growths = 0;
    for &b in bursts {
        let (mut left, mut room) = (b, cap);
        while left > room {
            left -= room;
            cap *= 2;
            room = cap;
            growths += 1;
        }
    }
    growths
}

/// Deliveries of a faulted run, checked against the plan's contract:
/// exactly once, per-channel FIFO, monotone per-channel arrival. Returns
/// each packet's final arrival stamp.
fn check_faulted(drains: &[Vec<Packet>], pushed: usize) -> HashMap<Id, Nanos> {
    let mut stamps = HashMap::new();
    let mut last: HashMap<(u32, u32), (u64, Nanos)> = HashMap::new();
    for p in drains.iter().flatten() {
        let (chan, seq) = ((p.header.context_id, p.header.src), p.header.seq);
        let (want, floor) = last
            .get(&chan)
            .map_or((0, Nanos(0)), |&(s, at)| (s + 1, at));
        assert_eq!(seq, want, "channel {chan:?} lost, duplicated or reordered");
        assert!(
            p.arrive_at >= floor,
            "channel {chan:?} arrival went backwards"
        );
        last.insert(chan, (seq, p.arrive_at));
        stamps.insert((chan.0, chan.1, seq), p.arrive_at);
    }
    assert_eq!(stamps.len(), pushed, "delivered count differs from pushes");
    stamps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Mailbox ≡ reference FIFO on every script.
    #[test]
    fn drains_match_the_fifo_model(ops in vec(op_strategy(), 1..400)) {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        let got: Vec<Vec<Id>> = run(&mb, &ops).iter().map(|d| ids(d)).collect();
        prop_assert_eq!(got, model(&ops), "mailbox diverged from the FIFO model");
        let pushes = ops.iter().filter(|o| **o != Op::Drain).count() as u64;
        prop_assert_eq!(mb.ring_pushes() + mb.ring_spills(), pushes);
        prop_assert!(mb.is_empty());
    }

    /// The same model when every push hammers one channel — the maximal
    /// growth case: a burst past the ring's capacity grows it (and grows it
    /// by exactly the doublings the burst needs) instead of spilling.
    #[test]
    fn single_channel_bursts_grow_the_ring(
        bursts in vec(1usize..(3 * Mailbox::ring_capacity()), 1..12),
    ) {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        let mut ops = Vec::new();
        for b in &bursts {
            ops.extend(std::iter::repeat_n(Op::Push(0, 0), *b));
            ops.push(Op::Drain);
        }
        let got: Vec<Vec<Id>> = run(&mb, &ops).iter().map(|d| ids(d)).collect();
        prop_assert_eq!(got, model(&ops));
        prop_assert_eq!(mb.ring_spills(), expected_growths(&bursts));
        if bursts.iter().any(|b| *b > Mailbox::ring_capacity()) {
            prop_assert!(mb.ring_spills() > 0, "oversized burst never grew the ring");
        }
    }

    /// A faulted mailbox (duplicates, reorders, delays, NACKs) keeps the
    /// plan's contract on every script, and each packet's final arrival
    /// stamp is the same when the channels' pushes are interleaved
    /// differently (here: grouped channel by channel, one drain at the end).
    #[test]
    fn faulted_scripts_deliver_exactly_once_with_schedule_free_stamps(
        ops in vec(op_strategy(), 1..400),
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan::new(seed)
            .duplicates(0.3)
            .reorders(0.3)
            .delays(0.3, Nanos(2_000))
            .nacks(0.1, Nanos(3_000));
        let pushes: Vec<Op> = ops.iter().copied().filter(|o| *o != Op::Drain).collect();

        let scripted = Mailbox::new(Arc::new(Notify::new()));
        scripted.arm_faults(plan.clone());
        let a = check_faulted(&run(&scripted, &ops), pushes.len());
        let report = scripted.fault_report().unwrap();
        prop_assert_eq!(report.dups_dropped, report.dups_injected);
        prop_assert!(scripted.is_empty());

        let mut grouped = pushes;
        grouped.sort_by_key(|o| match o {
            Op::Push(c, s) => (*c, *s),
            Op::Drain => unreachable!(),
        });
        let regrouped = Mailbox::new(Arc::new(Notify::new()));
        regrouped.arm_faults(plan);
        let b = check_faulted(&run(&regrouped, &grouped), grouped.len());
        prop_assert_eq!(a, b, "arrival stamps depend on push interleaving");
    }
}

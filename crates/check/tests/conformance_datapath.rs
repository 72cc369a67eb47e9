//! Datapath conformance: the lock-free mailbox lanes (growable rings found
//! through a growable channel directory) and the batched-doorbell injection
//! path must be *invisible* to MPI semantics — same delivery, same order,
//! same exactly-once guarantee as one FIFO queue, under concurrent senders,
//! bursts past ring capacity, hundreds of channels per mailbox, fault plans,
//! every matching engine, and both launch modes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rankmpi_check::Task;
use rankmpi_check::{
    base_seed, engines_under_test, explore, launch_modes_under_test, ExploreConfig,
};
use rankmpi_core::Universe;
use rankmpi_fabric::{FaultPlan, Header, Mailbox, Notify, Packet};
use rankmpi_vtime::sched::{yield_point, SchedPoint};
use rankmpi_vtime::Nanos;

/// Messages per sender thread for the burst tests below — resolved at run
/// time to several times a lane's first ring capacity, so rings wrap
/// repeatedly and, when the receiver lags, grow mid-run.
fn per_sender() -> usize {
    3 * Mailbox::ring_capacity()
}

/// Four concurrent sender threads burst-write one receiver rank: every
/// payload arrives exactly once and per-channel FIFO holds, for every
/// engine and both launch modes; the rings must actually carry traffic.
#[test]
fn concurrent_bursts_past_ring_capacity_deliver_exactly_once_in_order() {
    for kind in engines_under_test() {
        for launch in launch_modes_under_test() {
            let u = Universe::builder()
                .nodes(2)
                .threads_per_proc(4)
                .matching(kind)
                .launch(launch)
                .build();
            u.run(|env| {
                let world = env.world();
                if env.rank() == 0 {
                    env.parallel(|th| {
                        let tid = th.tid();
                        for i in 0..per_sender() {
                            let body = [tid as u8, i as u8, 0x5A];
                            world.send(th, 1, tid as i64, &body).unwrap();
                        }
                    });
                } else {
                    env.parallel(|th| {
                        let tid = th.tid();
                        for i in 0..per_sender() {
                            let (_st, data) = world.recv(th, 0, tid as i64).unwrap();
                            assert_eq!(
                                data.as_ref(),
                                [tid as u8, i as u8, 0x5A],
                                "message {i} on channel {tid} lost, duplicated, or \
                                 reordered (engine {}, launch {launch:?})",
                                kind.name()
                            );
                        }
                    });
                }
            });
            let mut ring_pushes = 0;
            for r in 0..2 {
                for v in 0..u.shared().proc(r).num_vcis() {
                    ring_pushes += u.shared().proc(r).vci(v).mailbox().ring_pushes();
                }
            }
            assert!(
                ring_pushes > 0,
                "no push ever took the lock-free ring path (engine {}, \
                 launch {launch:?})",
                kind.name()
            );
        }
    }
}

/// A batched multi-send must deliver exactly what the equivalent singles
/// deliver, while coalescing its NIC doorbells: `n` messages in one batch
/// ring one doorbell, and `doorbells + doorbells_coalesced` stays equal to
/// the NIC message count (so nothing is double-counted or missed).
#[test]
fn batched_sends_match_singles_and_coalesce_doorbells() {
    const N: usize = 16;
    let run = |batched: bool| -> (Vec<Vec<u8>>, u64, u64) {
        let u = Universe::builder().nodes(2).build();
        let got = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let bodies: Vec<[u8; 24]> = (0..N).map(|i| [i as u8 ^ 0x21; 24]).collect();
                if batched {
                    let msgs: Vec<(usize, i64, &[u8])> =
                        bodies.iter().map(|b| (1usize, 9i64, &b[..])).collect();
                    for r in world.isend_multi(&mut th, &msgs).unwrap() {
                        r.wait(&mut th.clock);
                    }
                } else {
                    for b in &bodies {
                        world.send(&mut th, 1, 9, b).unwrap();
                    }
                }
                Vec::new()
            } else {
                (0..N)
                    .map(|_| world.recv(&mut th, 0, 9).unwrap().1.to_vec())
                    .collect()
            }
        });
        let vci = u.shared().proc(0).vci(0);
        (
            got.into_iter().find(|v| !v.is_empty()).unwrap_or_default(),
            vci.doorbells(),
            vci.doorbells_coalesced(),
        )
    };

    let (singles, singles_bells, singles_coal) = run(false);
    let (batched, batch_bells, batch_coal) = run(true);
    assert_eq!(
        batched, singles,
        "batched multi-send delivered different payloads than singles"
    );
    assert_eq!(singles_coal, 0, "singles must never share a doorbell");
    assert_eq!(
        singles_bells - batch_bells,
        (N - 1) as u64,
        "a batch of {N} must replace {N} doorbell rings with one"
    );
    assert_eq!(
        batch_coal,
        (N - 1) as u64,
        "coalesced counter must record the {} sends that shared the ring",
        N - 1
    );
    assert_eq!(
        batch_bells + batch_coal,
        singles_bells,
        "doorbells + coalesced must equal the NIC message count"
    );
}

/// Sum of ring pushes and ring growths over every mailbox of `u`.
fn ring_counts(u: &Universe) -> (u64, u64) {
    let (mut pushes, mut grows) = (0, 0);
    for r in 0..u.shared().n_procs() {
        let proc = u.shared().proc(r);
        for v in 0..proc.num_vcis() {
            pushes += proc.vci(v).mailbox().ring_pushes();
            grows += proc.vci(v).mailbox().ring_spills();
        }
    }
    (pushes, grows)
}

/// Receive `per_src` messages from each of `srcs` on `comm` (tag 7) and
/// check every one arrives exactly once and in per-source send order: a
/// lost, duplicated or overtaking message shows up as a payload mismatch.
fn recv_in_order(
    comm: &rankmpi_core::Communicator,
    th: &mut rankmpi_core::ThreadCtx,
    srcs: std::ops::Range<usize>,
    per_src: usize,
    what: &str,
) {
    for i in 0..per_src {
        for src in srcs.clone() {
            let (_st, data) = comm.recv(th, src as i64, 7).unwrap();
            assert_eq!(
                data.as_ref(),
                [src as u8, (src >> 8) as u8, i as u8],
                "{what}: message {i} from rank {src} lost, duplicated, or reordered"
            );
        }
    }
}

/// Regression for the channel-directory cliff: a mailbox used to register
/// rings for at most 96 `(context, src)` channels and silently send every
/// later channel through a global locked queue. A 200-rank fan-in to rank
/// 0 has 199 channels on one mailbox; every push must take a ring, and
/// delivery must stay exactly-once and per-channel FIFO.
#[test]
fn fan_in_from_199_ranks_keeps_every_push_on_a_ring() {
    const RANKS: usize = 200;
    const PER_SRC: usize = 2;
    let u = Universe::builder().nodes(RANKS).tasks().build();
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        let me = env.rank();
        if me == 0 {
            recv_in_order(&world, &mut th, 1..RANKS, PER_SRC, "fan-in");
        } else {
            for i in 0..PER_SRC {
                world
                    .send(&mut th, 0, 7, &[me as u8, (me >> 8) as u8, i as u8])
                    .unwrap();
            }
        }
    });
    let (pushes, grows) = ring_counts(&u);
    assert_eq!(grows, 0, "pushes left their lane's ring as it was");
    assert!(
        pushes >= ((RANKS - 1) * PER_SRC) as u64,
        "only {pushes} pushes took a ring"
    );
    let rank0 = u.shared().proc(0).vci(0).mailbox().clone();
    assert!(rank0.is_empty());
}

/// The same cliff reached through communicators instead of ranks: 16 ranks
/// sending to rank 0 on world and on 8 `dup`s give 135 channels on rank 0's
/// mailbox.
#[test]
fn world_plus_eight_dups_keeps_every_push_on_a_ring() {
    const RANKS: usize = 16;
    const DUPS: usize = 8;
    let u = Universe::builder().nodes(RANKS).tasks().build();
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        let mut comms = vec![world.clone()];
        for _ in 0..DUPS {
            comms.push(world.dup(&mut th).unwrap());
        }
        let me = env.rank();
        for (c, comm) in comms.iter().enumerate() {
            let what = format!("communicator {c}");
            if me == 0 {
                recv_in_order(comm, &mut th, 1..RANKS, 1, &what);
            } else {
                comm.send(&mut th, 0, 7, &[me as u8, (me >> 8) as u8, 0])
                    .unwrap();
            }
        }
    });
    let (pushes, grows) = ring_counts(&u);
    assert_eq!(grows, 0, "pushes left their lane's ring as it was");
    assert!(
        pushes >= ((RANKS - 1) * (DUPS + 1)) as u64,
        "only {pushes} pushes took a ring"
    );
}

/// Burst injection (batched multi-sends) over a lossy fabric: the batch
/// path flows through the same resil admission as singles, so drops and
/// flaps still end in exactly-once, in-order delivery — and the sweep must
/// actually retransmit, or the lossy path wasn't exercised.
#[test]
fn batched_bursts_over_lossy_fabric_stay_exactly_once() {
    const CHUNK: usize = 16;
    const CHUNKS: usize = 4;
    for kind in engines_under_test() {
        let mut retransmits = 0u64;
        for s in 0..4u64 {
            let plan = FaultPlan::lossy(base_seed() ^ 0xBA7C ^ (s << 7));
            let u = Universe::builder()
                .nodes(2)
                .matching(kind)
                .fault_plan(plan)
                .build();
            u.run(|env| {
                let world = env.world();
                let mut th = env.single_thread();
                if env.rank() == 0 {
                    for c in 0..CHUNKS {
                        let bodies: Vec<[u8; 24]> =
                            (0..CHUNK).map(|i| [(c * CHUNK + i) as u8; 24]).collect();
                        let msgs: Vec<(usize, i64, &[u8])> =
                            bodies.iter().map(|b| (1usize, 5i64, &b[..])).collect();
                        for r in world.isend_multi(&mut th, &msgs).unwrap() {
                            r.wait(&mut th.clock);
                        }
                    }
                } else {
                    for i in 0..CHUNK * CHUNKS {
                        let (_st, data) = world.recv(&mut th, 0, 5).unwrap();
                        assert_eq!(
                            data.as_ref(),
                            [i as u8; 24],
                            "batched message {i} lost, duplicated, or reordered \
                             under loss (engine {}, sweep {s})",
                            kind.name()
                        );
                    }
                }
            });
            for r in 0..2 {
                let mb = u.shared().proc(r).vci(0).mailbox().clone();
                let rep = mb.resil().expect("lossy plan must arm resil").report();
                assert_eq!(rep.exhausted, 0, "retry budget must hold here");
                retransmits += rep.retransmits;
            }
        }
        assert!(
            retransmits > 0,
            "a 4-seed lossy sweep of batched sends never retransmitted \
             (engine {}): the batch path is bypassing resil",
            kind.name()
        );
    }
}

/// Schedule-explored ring/drain interleavings straight on the mailbox: two
/// producers on distinct channels and one racing drainer, with every
/// interleaving of the `MailboxPush`/`MailboxDrain` yield points explored.
/// Each channel's ring starts one push short of full, so the explored
/// choices decide whether a drain lands before, between or after the pushes
/// that grow it — drains race ring growth, and must follow the link without
/// losing what the old ring still holds. Per-channel FIFO and exactly-once
/// delivery must hold on all of them, with and without a (duplicating,
/// non-lossy) fault plan armed.
#[test]
fn explored_push_drain_interleavings_preserve_channel_fifo() {
    let prefill = Mailbox::ring_capacity() as u64 - 1;
    let per_task = prefill + 4;
    let pkt = |src: u32, seq: u64| Packet {
        header: Header {
            kind: 1,
            context_id: 3,
            src,
            dst: 0,
            tag: 0,
            seq,
            aux: 0,
            aux2: 0,
        },
        payload: bytes::Bytes::new(),
        arrive_at: Nanos(seq),
    };
    for faulted in [false, true] {
        let cfg = ExploreConfig {
            depth: 6,
            max_exhaustive: 64,
            random_samples: 8,
            ..ExploreConfig::with_seed(base_seed() ^ 0xDA7A ^ faulted as u64)
        };
        let grown = Arc::new(AtomicU64::new(0));
        let grown_in_runs = Arc::clone(&grown);
        explore(
            &format!("datapath_push_drain_faulted_{faulted}"),
            &cfg,
            move || {
                let mb = Arc::new(Mailbox::new(Arc::new(Notify::new())));
                if faulted {
                    // Duplicates + reorder, no loss: delivery may legally be
                    // perturbed *across* channels, but each channel stays
                    // FIFO and exactly-once (watermark dedup).
                    mb.arm_faults(
                        FaultPlan::new(base_seed() ^ 0x11CE)
                            .duplicates(0.3)
                            .reorders(0.3),
                    );
                }
                // Set-up runs outside the explored tasks, so it has no
                // choice points: the explored ones all sit at the ring's
                // growth boundary.
                for src in 0..2u32 {
                    for seq in 0..prefill {
                        mb.push(pkt(src, seq));
                    }
                }
                let mut tasks: Vec<Task> = Vec::new();
                for src in 0..2u32 {
                    let mb = Arc::clone(&mb);
                    tasks.push(Box::new(move || {
                        for seq in prefill..per_task {
                            mb.push(pkt(src, seq));
                        }
                    }));
                }
                let grown = Arc::clone(&grown_in_runs);
                let drainer: Task = Box::new(move || {
                    let mut next = [0u64; 2];
                    let mut got = 0u64;
                    let mut buf = Vec::new();
                    while got < 2 * per_task {
                        yield_point(SchedPoint::Custom("await-packets"));
                        buf.clear();
                        mb.drain_into(&mut buf);
                        for p in &buf {
                            let ch = p.header.src as usize;
                            assert_eq!(
                                p.header.seq, next[ch],
                                "channel {ch} broke FIFO or delivered twice"
                            );
                            next[ch] += 1;
                            got += 1;
                        }
                    }
                    grown.fetch_add(mb.ring_spills(), Ordering::Relaxed);
                });
                tasks.push(drainer);
                tasks
            },
        );
        assert!(
            grown.load(Ordering::Relaxed) > 0,
            "no explored schedule grew a ring (faulted {faulted})"
        );
    }
}

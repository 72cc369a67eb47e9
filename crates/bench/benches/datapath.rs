//! Datapath ablation benchmarks: SPSC mailbox rings vs a mutex-mailbox
//! baseline ([`MutexMailbox`], one lock around one queue), packet-arena
//! allocation behavior, and batched-doorbell amortization curves. Writes a
//! machine-readable `BENCH_datapath.json`.
//!
//! ## Push+drain ablation methodology
//!
//! The concurrent contest drives each mailbox with real sender threads, under a bounded in-flight window (a real fabric's rx queue is
//! bounded; without the window the mutex baseline can park its consumer for
//! the whole run and win on batch amortization alone, a regime no fabric
//! permits). Two throughputs come out of one run:
//!
//! - **modeled** (asserted): each thread carries a virtual [`Clock`] charged
//!   with that variant's calibrated single-thread per-op cost, and the mutex
//!   variant's operations additionally pass through a [`ContentionLock`] —
//!   the repo's standard instrument for reproducing multicore lock behavior
//!   (serialized critical sections + literature-calibrated handoff costs) on
//!   any host. The modeled makespan is dominated by the serial resource each
//!   variant actually has: the shared lock for the baseline, the single
//!   drain consumer for the rings. This metric is deterministic up to
//!   calibration noise.
//! - **wall** (reported, not asserted): elapsed time of the same run. On a
//!   single-core CI container every thread time-slices one CPU, so wall
//!   ratios measure scheduler luck, not the datapath — they are recorded for
//!   transparency only.

use criterion::{criterion_group, criterion_main, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rankmpi_bench::json::{write_bench_json, Json};
use rankmpi_bench::mailboxes::{MutexMailbox, PacketQueue};
use rankmpi_bench::{print_table, ratio};
use rankmpi_core::Universe;
use rankmpi_fabric::{Header, Mailbox, Notify, Packet, PayloadPool};
use rankmpi_vtime::{Clock, ContentionLock, Nanos};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn pkt(src: u32, seq: u64, payload: Bytes) -> Packet {
    Packet {
        header: Header {
            kind: 1,
            context_id: 1,
            src,
            dst: 0,
            tag: 0,
            seq,
            aux: 0,
            aux2: 0,
        },
        payload,
        arrive_at: Nanos(seq),
    }
}

/// In-flight bound (messages pushed but not yet drained) for the concurrent
/// contest — both variants run under it; see the module docs.
const WINDOW: u64 = 1024;

/// Calibrated single-thread per-op costs for one variant, in nanoseconds:
/// `(push, drain per message)`.
#[derive(Clone, Copy)]
struct OpCosts {
    push_ns: u64,
    drain_ns: u64,
}

/// One concurrent push+drain contest on a `Q` mailbox: `senders` OS
/// threads push `per_sender` packets each (one channel per sender) while a
/// consumer thread drains until everything arrived, with notification
/// batched every 16 pushes — the cadence of the batched injection path.
/// Returns `(wall msgs/s, modeled msgs/s)`; the modeled number charges
/// `costs` to per-thread virtual clocks, through a shared [`ContentionLock`]
/// for the mutex variant (see the module docs).
fn push_drain_contest<Q: PacketQueue>(senders: u32, per_sender: u64, costs: OpCosts) -> (f64, f64) {
    let notify = Arc::new(Notify::new());
    let mb = Q::new(Arc::clone(&notify));
    let total = senders as u64 * per_sender;
    let cost_lock: ContentionLock<()> = ContentionLock::new(());
    let pushed = AtomicU64::new(0);
    let delivered = AtomicU64::new(0);
    let makespan = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for src in 0..senders {
            let notify = Arc::clone(&notify);
            let (mb, cost_lock) = (&mb, &cost_lock);
            let (pushed, delivered, makespan) = (&pushed, &delivered, &makespan);
            s.spawn(move || {
                let mut clock = Clock::new();
                for seq in 0..per_sender {
                    while pushed
                        .load(Ordering::Relaxed)
                        .wrapping_sub(delivered.load(Ordering::Relaxed))
                        >= WINDOW
                    {
                        notify.notify();
                        std::thread::yield_now();
                    }
                    if Q::LOCKED {
                        let g = cost_lock.lock(&mut clock);
                        clock.advance(Nanos(costs.push_ns));
                        g.release(&mut clock);
                    } else {
                        clock.advance(Nanos(costs.push_ns));
                    }
                    mb.push_quiet(pkt(src, seq, Bytes::new()));
                    pushed.fetch_add(1, Ordering::Relaxed);
                    if seq % 16 == 15 {
                        notify.notify();
                    }
                }
                notify.notify();
                makespan.fetch_max(clock.now().as_ns(), Ordering::Relaxed);
            });
        }
        let (mb, cost_lock) = (&mb, &cost_lock);
        let (delivered, makespan, notify) = (&delivered, &makespan, &notify);
        s.spawn(move || {
            let mut clock = Clock::new();
            let mut buf: Vec<Packet> = Vec::new();
            let mut got = 0u64;
            while got < total {
                let seen = notify.version();
                buf.clear();
                let n = mb.drain_into(&mut buf) as u64;
                if n > 0 {
                    if Q::LOCKED {
                        let g = cost_lock.lock(&mut clock);
                        clock.advance(Nanos(n * costs.drain_ns));
                        g.release(&mut clock);
                    } else {
                        clock.advance(Nanos(n * costs.drain_ns));
                    }
                    got += n;
                    delivered.fetch_add(n, Ordering::Relaxed);
                }
                if buf.is_empty() {
                    notify.wait_past(seen, Duration::from_micros(50));
                }
            }
            makespan.fetch_max(clock.now().as_ns(), Ordering::Relaxed);
        });
    });
    let wall = start.elapsed().as_secs_f64();
    let span = makespan.load(Ordering::Relaxed).max(1);
    (total as f64 / wall, total as f64 * 1e9 / span as f64)
}

/// Median `(wall msgs/s, modeled msgs/s)` of 3 contests.
fn push_drain_throughput<Q: PacketQueue>(
    senders: u32,
    per_sender: u64,
    costs: OpCosts,
) -> (f64, f64) {
    let mut runs: Vec<(f64, f64)> = (0..3)
        .map(|_| push_drain_contest::<Q>(senders, per_sender, costs))
        .collect();
    runs.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let modeled = runs[1].1;
    runs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    (runs[1].0, modeled)
}

/// Single-threaded ring-resident cost: rounds of (32 pushes per channel ×
/// 4 channels, one drain). Returns (ns per push, drain messages/sec).
fn single_thread_costs<Q: PacketQueue>() -> (f64, f64) {
    const ROUNDS: u64 = 2_000;
    let mb = Q::new(Arc::new(Notify::new()));
    let mut buf: Vec<Packet> = Vec::new();
    // Warmup registers the channel rings and sizes the scratch.
    for _ in 0..64 {
        for src in 0..4u32 {
            for seq in 0..32u64 {
                mb.push_quiet(pkt(src, seq, Bytes::new()));
            }
        }
        buf.clear();
        mb.drain_into(&mut buf);
    }
    let mut push_ns = 0.0f64;
    let mut drain_ns = 0.0f64;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for src in 0..4u32 {
            for seq in 0..32u64 {
                mb.push_quiet(pkt(src, seq, Bytes::new()));
            }
        }
        push_ns += t0.elapsed().as_nanos() as f64;
        let t1 = Instant::now();
        buf.clear();
        mb.drain_into(&mut buf);
        drain_ns += t1.elapsed().as_nanos() as f64;
        assert_eq!(buf.len(), 128);
    }
    let msgs = (ROUNDS * 128) as f64;
    (push_ns / msgs, msgs * 1e9 / drain_ns)
}

/// Heap allocations per message in a warmed steady state: pooled payloads
/// through the ring mailbox vs fresh `Bytes` copies through the mutex
/// mailbox (the pre-arena datapath).
fn allocs_per_message(pooled: bool) -> f64 {
    if pooled {
        steady_allocs_per_message::<Mailbox>(true)
    } else {
        steady_allocs_per_message::<MutexMailbox>(false)
    }
}

fn steady_allocs_per_message<Q: PacketQueue>(pooled: bool) -> f64 {
    const MSGS: u64 = 4_096;
    let mb = Q::new(Arc::new(Notify::new()));
    let pool = PayloadPool::new();
    let data = vec![0x3Cu8; 256];
    let mut buf: Vec<Packet> = Vec::new();
    let mut round = |n: u64| {
        for seq in 0..n {
            let payload = if pooled {
                pool.alloc(&data)
            } else {
                Bytes::copy_from_slice(&data)
            };
            mb.push_quiet(pkt((seq % 4) as u32, seq, payload));
            if seq % 8 == 7 {
                buf.clear();
                mb.drain_into(&mut buf);
            }
        }
        buf.clear();
        mb.drain_into(&mut buf);
        buf.clear();
    };
    for _ in 0..4 {
        round(MSGS);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    round(MSGS);
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / MSGS as f64
}

/// Doorbell rings per message when `msgs` identical NIC sends are injected
/// in batches of `batch` (virtual counters; fully deterministic).
fn doorbells_per_message(batch: usize, msgs: usize) -> f64 {
    let u = Universe::builder().nodes(2).build();
    let deltas = u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        if env.rank() == 0 {
            let vci = env.proc().vci(world.vci_block()[0]);
            let before = vci.doorbells();
            let body = [0x77u8; 24];
            for chunk in 0..msgs.div_ceil(batch) {
                let n = batch.min(msgs - chunk * batch);
                let batch_msgs: Vec<(usize, i64, &[u8])> =
                    (0..n).map(|_| (1usize, 9i64, &body[..])).collect();
                for r in world.isend_multi(&mut th, &batch_msgs).unwrap() {
                    r.wait(&mut th.clock);
                }
            }
            vci.doorbells() - before
        } else {
            for _ in 0..msgs {
                world.recv(&mut th, 0, 9).unwrap();
            }
            0
        }
    });
    deltas.into_iter().sum::<u64>() as f64 / msgs as f64
}

/// Doorbells/message of a halo-shaped exchange: a center rank posts its
/// four per-direction boundary sends (one per neighbor rank) as one batch
/// per iteration — the shape `exchange_loop` produces per thread.
fn halo_shaped_doorbells_per_message() -> f64 {
    const ITERS: usize = 64;
    let u = Universe::builder().nodes(5).build();
    let deltas = u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        if env.rank() == 0 {
            let vci = env.proc().vci(world.vci_block()[0]);
            let before = vci.doorbells();
            let body = [0x42u8; 64];
            for _ in 0..ITERS {
                let msgs: Vec<(usize, i64, &[u8])> =
                    (1..5).map(|d| (d, d as i64, &body[..])).collect();
                for r in world.isend_multi(&mut th, &msgs).unwrap() {
                    r.wait(&mut th.clock);
                }
            }
            vci.doorbells() - before
        } else {
            for _ in 0..ITERS {
                world.recv(&mut th, 0, env.rank() as i64).unwrap();
            }
            0
        }
    });
    deltas.into_iter().sum::<u64>() as f64 / (4 * ITERS) as f64
}

/// Doorbells/message of a stream-farm-shaped flush: the emitter flushes a
/// full 16-item lane burst to one worker per round (the `EMIT_BURST` shape
/// of the stream runner's credit window).
fn stream_farm_shaped_doorbells_per_message() -> f64 {
    const ROUNDS: usize = 32;
    const BURST: usize = 16;
    let u = Universe::builder().nodes(2).build();
    let deltas = u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        if env.rank() == 0 {
            let vci = env.proc().vci(world.vci_block()[0]);
            let before = vci.doorbells();
            let body = [0x55u8; 256];
            for _ in 0..ROUNDS {
                let msgs: Vec<(usize, i64, &[u8])> =
                    (0..BURST).map(|_| (1usize, 3i64, &body[..])).collect();
                for r in world.isend_multi(&mut th, &msgs).unwrap() {
                    r.wait(&mut th.clock);
                }
            }
            vci.doorbells() - before
        } else {
            for _ in 0..ROUNDS * BURST {
                world.recv(&mut th, 0, 3).unwrap();
            }
            0
        }
    });
    deltas.into_iter().sum::<u64>() as f64 / (ROUNDS * BURST) as f64
}

fn bench_datapath(_c: &mut Criterion) {
    const SENDERS: u32 = 4;
    const PER_SENDER: u64 = 100_000;

    // --- Calibration: single-thread per-op costs on the real datapath. ---
    let (ring_push_ns, ring_drain_tput) = single_thread_costs::<Mailbox>();
    let (mutex_push_ns, mutex_drain_tput) = single_thread_costs::<MutexMailbox>();
    let ring_costs = OpCosts {
        push_ns: (ring_push_ns.round() as u64).max(1),
        drain_ns: ((1e9 / ring_drain_tput).round() as u64).max(1),
    };
    let mutex_costs = OpCosts {
        push_ns: (mutex_push_ns.round() as u64).max(1),
        drain_ns: ((1e9 / mutex_drain_tput).round() as u64).max(1),
    };

    // --- Ring vs mutex mailbox under concurrent senders. ---
    let (ring_wall, ring_tput) = push_drain_throughput::<Mailbox>(SENDERS, PER_SENDER, ring_costs);
    let (mutex_wall, mutex_tput) =
        push_drain_throughput::<MutexMailbox>(SENDERS, PER_SENDER, mutex_costs);
    let speedup = ring_tput / mutex_tput;
    print_table(
        "Mailbox push+drain — SPSC rings vs mutex baseline",
        &[
            "variant",
            "4-sender msgs/s (modeled)",
            "4-sender msgs/s (wall)",
            "1-thread ns/push",
            "drain msgs/s",
        ],
        &[
            vec![
                "rings".to_string(),
                format!("{ring_tput:.3e}"),
                format!("{ring_wall:.3e}"),
                format!("{ring_push_ns:.0}"),
                format!("{ring_drain_tput:.3e}"),
            ],
            vec![
                "mutex".to_string(),
                format!("{mutex_tput:.3e}"),
                format!("{mutex_wall:.3e}"),
                format!("{mutex_push_ns:.0}"),
                format!("{mutex_drain_tput:.3e}"),
            ],
            vec![
                "ring/mutex".to_string(),
                ratio(ring_tput, mutex_tput),
                ratio(ring_wall, mutex_wall),
                ratio(mutex_push_ns, ring_push_ns),
                ratio(ring_drain_tput, mutex_drain_tput),
            ],
        ],
    );
    assert!(
        speedup >= 2.0,
        "ring mailbox must be >= 2x the mutex baseline under {SENDERS} \
         concurrent senders (modeled contention, see module docs); measured \
         {speedup:.2}x ({ring_tput:.3e} vs {mutex_tput:.3e} msgs/s)"
    );

    // --- Allocations per message, before/after the packet arena. ---
    let pooled_allocs = allocs_per_message(true);
    let unpooled_allocs = allocs_per_message(false);
    print_table(
        "Heap allocations per message (steady state)",
        &["arena + rings", "fresh Bytes + mutex queue"],
        &[vec![
            format!("{pooled_allocs:.3}"),
            format!("{unpooled_allocs:.3}"),
        ]],
    );
    assert_eq!(
        pooled_allocs, 0.0,
        "pooled steady state must allocate nothing per message"
    );
    assert!(
        unpooled_allocs >= 1.0,
        "the unpooled baseline should allocate at least once per message"
    );

    // --- Doorbells per message vs batch size (virtual counters). ---
    let mut curve = Vec::new();
    let mut curve_rows = Vec::new();
    let mut prev = f64::INFINITY;
    for batch in [1usize, 4, 16, 64] {
        let dpm = doorbells_per_message(batch, 64);
        assert!(
            dpm <= prev,
            "doorbells/message must not increase with batch size"
        );
        if batch == 1 {
            assert_eq!(dpm, 1.0, "unbatched sends ring one doorbell each");
        }
        if batch >= 16 {
            assert!(
                dpm < 0.3,
                "batch {batch} must amortize below 0.3 doorbells/message, got {dpm}"
            );
        }
        prev = dpm;
        curve.push(Json::obj([
            ("batch", Json::int(batch as u64)),
            ("doorbells_per_message", Json::Num(dpm)),
        ]));
        curve_rows.push(vec![batch.to_string(), format!("{dpm:.4}")]);
    }
    print_table(
        "Doorbells per message vs injection batch size",
        &["batch", "doorbells/message"],
        &curve_rows,
    );

    // --- Workload-shaped doorbell ratios. ---
    let halo = halo_shaped_doorbells_per_message();
    let farm = stream_farm_shaped_doorbells_per_message();
    print_table(
        "Workload-shaped doorbell amortization",
        &["halo (4-direction rounds)", "stream farm (16-item flushes)"],
        &[vec![format!("{halo:.4}"), format!("{farm:.4}")]],
    );
    assert!(halo < 0.3, "halo-shaped ratio must be < 0.3, got {halo}");
    assert!(farm < 0.3, "farm-shaped ratio must be < 0.3, got {farm}");

    write_bench_json(
        "datapath",
        &Json::obj([
            ("bench", Json::str("datapath")),
            (
                "push_drain",
                Json::obj([
                    (
                        "methodology",
                        Json::str(
                            "real mailbox driven by real sender threads under a bounded \
                             in-flight window; asserted msgs/s are modeled via per-thread \
                             virtual clocks charged with calibrated single-thread op costs, \
                             the mutex variant serialized through a ContentionLock \
                             (acquire 30ns / handoff 50ns); wall msgs/s are the same runs' \
                             elapsed-time numbers, scheduler-bound on 1-core hosts",
                        ),
                    ),
                    ("senders", Json::int(SENDERS as u64)),
                    ("per_sender", Json::int(PER_SENDER)),
                    ("window", Json::int(WINDOW)),
                    ("ring_msgs_per_sec", Json::Num(ring_tput)),
                    ("mutex_msgs_per_sec", Json::Num(mutex_tput)),
                    ("ring_vs_mutex_speedup", Json::Num(speedup)),
                    ("ring_wall_msgs_per_sec", Json::Num(ring_wall)),
                    ("mutex_wall_msgs_per_sec", Json::Num(mutex_wall)),
                    (
                        "ring_vs_mutex_wall_speedup",
                        Json::Num(ring_wall / mutex_wall),
                    ),
                    ("ring_ns_per_push", Json::Num(ring_push_ns)),
                    ("mutex_ns_per_push", Json::Num(mutex_push_ns)),
                    ("ring_drain_msgs_per_sec", Json::Num(ring_drain_tput)),
                    ("mutex_drain_msgs_per_sec", Json::Num(mutex_drain_tput)),
                ]),
            ),
            (
                "allocs_per_message",
                Json::obj([
                    ("arena_rings", Json::Num(pooled_allocs)),
                    ("fresh_bytes_mutex", Json::Num(unpooled_allocs)),
                ]),
            ),
            ("doorbells_vs_batch", Json::Arr(curve)),
            (
                "workload_shaped_doorbells_per_message",
                Json::obj([
                    ("halo_shaped", Json::Num(halo)),
                    ("stream_farm_shaped", Json::Num(farm)),
                ]),
            ),
        ]),
    );
}

criterion_group!(benches, bench_datapath);
criterion_main!(benches);

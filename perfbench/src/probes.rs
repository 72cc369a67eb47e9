//! Layer probes: single public functions of one layer, timed in warmed
//! steady state and printed beside the cost-model constant that stands for
//! them.
//!
//! Each probe builds its structure once, warms it, and then times individual
//! calls while keeping the structure at a fixed size, so no sample includes
//! building or tearing down an engine. The cost of reading the clock is
//! measured and subtracted.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rankmpi_core::costs::CoreCosts;
use rankmpi_core::matching::{Incoming, MatchEngine, PostedRecv, ScanWork};
use rankmpi_core::request::ReqState;
use rankmpi_core::{EngineKind, MatchPattern, ANY_SOURCE, ANY_TAG};
use rankmpi_fabric::{Header, Mailbox, NetworkProfile, Notify, Packet};
use rankmpi_vtime::Nanos;

use crate::stats::{median, quantile_sorted};

/// One probe result: a per-layer metric, and the model value beside it.
#[derive(Debug, Clone)]
pub struct Row {
    pub metric: String,
    pub unit: &'static str,
    pub measured: f64,
    /// `(model constant or formula, its value in ns)`.
    pub model: Option<(String, f64)>,
}

const WARM: usize = 256;
const SAMPLES: usize = 2_000;

/// Cost of an empty `Instant::now()` pair, ns: the mean of the middle 80%
/// of the samples, which ignores preempted samples without rounding the
/// result to whole nanoseconds.
fn timer_overhead_ns() -> f64 {
    let mut v: Vec<u64> = (0..10_000)
        .map(|_| {
            let t = Instant::now();
            black_box(t.elapsed().as_nanos() as u64)
        })
        .collect();
    v.sort_unstable();
    let mid = &v[v.len() / 10..v.len() * 9 / 10];
    mid.iter().sum::<u64>() as f64 / mid.len() as f64
}

fn pkt(src: u32, tag: i64, seq: u64) -> Packet {
    Packet {
        header: Header {
            kind: 1,
            context_id: 1,
            src,
            dst: 0,
            tag,
            seq,
            aux: 0,
            aux2: 0,
        },
        payload: Bytes::new(),
        arrive_at: Nanos(seq + 1),
    }
}

fn recv(src: i64, tag: i64) -> PostedRecv {
    PostedRecv {
        pattern: MatchPattern {
            context_id: 1,
            src,
            tag,
        },
        req: ReqState::detached(),
        posted_at: Nanos::ZERO,
    }
}

/// Timed samples of one engine operation, with the work it reported.
struct OpSamples {
    ns: Vec<f64>,
    work: Option<ScanWork>,
}

impl OpSamples {
    fn new() -> Self {
        OpSamples {
            ns: Vec::with_capacity(SAMPLES),
            work: None,
        }
    }

    fn push(&mut self, i: usize, dt: Duration, work: ScanWork) {
        if i >= WARM {
            self.ns.push(dt.as_nanos() as f64);
            self.work = Some(work);
        }
    }
}

/// Steady-state matching probes on one engine holding `depth` unexpected
/// messages: an exact receive that hits the newest message (a full scan for
/// the flat queue), the arrival that refills it, an exact receive that
/// misses, and a full wildcard receive that takes the oldest message.
fn matching(kind: EngineKind, depth: usize) -> [(&'static str, OpSamples); 4] {
    let mut e: Box<dyn MatchEngine> = kind.new_engine();
    let mut seq = 0u64;
    let mut next = |e: &mut Box<dyn MatchEngine>, tag: i64| {
        seq += 1;
        e.incoming(pkt(0, tag, seq))
    };
    for tag in 0..depth as i64 {
        next(&mut e, tag);
    }
    let (mut hit, mut arrive, mut miss, mut wild) = (
        OpSamples::new(),
        OpSamples::new(),
        OpSamples::new(),
        OpSamples::new(),
    );
    // Tag of the newest unexpected message; the wildcard takes the oldest,
    // whose tag re-arrives as the newest.
    let mut newest = depth as i64 - 1;
    for i in 0..WARM + SAMPLES {
        let t = Instant::now();
        let (m, work) = e.post_recv(recv(0, newest));
        let dt = t.elapsed();
        assert!(m.is_some(), "exact probe must hit");
        hit.push(i, dt, work);

        let t = Instant::now();
        let inc = next(&mut e, newest);
        let dt = t.elapsed();
        let Incoming::Queued { work } = inc else {
            panic!("refill must queue as unexpected")
        };
        arrive.push(i, dt, work);

        // Tags at or above `depth` are never queued, so this receive misses.
        let absent = (depth + i) as i64;
        let t = Instant::now();
        let (m, work) = e.post_recv(recv(0, absent));
        let dt = t.elapsed();
        assert!(m.is_none(), "miss probe must miss");
        miss.push(i, dt, work);
        // Complete the posted miss so the posted queue stays empty.
        let Incoming::Matched { .. } = next(&mut e, absent) else {
            panic!("arrival must match the posted miss")
        };

        let t = Instant::now();
        let (m, work) = e.post_recv(recv(ANY_SOURCE, ANY_TAG));
        let dt = t.elapsed();
        let m = m.expect("wildcard probe must hit");
        wild.push(i, dt, work);
        newest = m.header.tag;
        next(&mut e, newest);
    }
    assert_eq!(e.unexpected_len(), depth);
    assert_eq!(e.posted_len(), 0);
    [
        ("exact_hit", hit),
        ("exact_miss", miss),
        ("wild_hit", wild),
        ("arrive", arrive),
    ]
}

/// Single-thread mailbox push and drain cost with `channels` senders: each
/// round pushes `per_channel` packets per channel, then drains them all.
/// Past the channel directory's capacity the extra channels take the locked
/// fallback — the spill regime.
fn mailbox(channels: u32, per_channel: u64) -> (f64, f64) {
    const ROUNDS: usize = 200;
    let mb = Mailbox::new(Arc::new(Notify::new()));
    let mut out: Vec<Packet> = Vec::new();
    let mut push_ns = Vec::new();
    let mut drain_ns = Vec::new();
    let n = (channels as u64 * per_channel) as f64;
    for round in 0..ROUNDS + 20 {
        let t = Instant::now();
        for src in 0..channels {
            for s in 0..per_channel {
                mb.push_quiet(pkt(src, 0, s), None);
            }
        }
        let pushed = t.elapsed();
        out.clear();
        let t = Instant::now();
        let got = mb.drain_into(&mut out);
        let drained = t.elapsed();
        assert_eq!(got as f64, n, "drain must return every push");
        if round >= 20 {
            push_ns.push(pushed.as_nanos() as f64 / n);
            drain_ns.push(drained.as_nanos() as f64 / n);
        }
    }
    (median(&push_ns), median(&drain_ns))
}

/// Cross-thread wake latency: the time from `Notify::notify` on one thread
/// to `Notify::wait_past` returning on a thread already asleep in it, in µs
/// `(p50, p99)`. Also returns the cost of a `notify` nobody waits on, ns.
fn notify_wake() -> (f64, f64, f64) {
    const WAKES: usize = 2_000;
    let ping = Notify::new();
    let pong = Notify::new();
    let base = Instant::now();
    let sent_at = AtomicU64::new(0);
    let mut lat_ns: Vec<u64> = std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            let mut seen = 0;
            let mut lat = Vec::with_capacity(WAKES);
            for _ in 0..WAKES {
                seen = ping.wait_past(seen, Duration::from_secs(5));
                let now = base.elapsed().as_nanos() as u64;
                lat.push(now.saturating_sub(sent_at.load(Ordering::Acquire)));
                pong.notify();
            }
            lat
        });
        let mut seen = 0;
        for _ in 0..WAKES {
            // Give the waiter time to fall asleep before ringing.
            let t = Instant::now();
            while t.elapsed() < Duration::from_micros(50) {
                std::hint::spin_loop();
            }
            sent_at.store(base.elapsed().as_nanos() as u64, Ordering::Release);
            ping.notify();
            seen = pong.wait_past(seen, Duration::from_secs(5));
        }
        waiter.join().expect("wake probe waiter panicked")
    });
    lat_ns.sort_unstable();
    let idle = Notify::new();
    let t = Instant::now();
    for _ in 0..100_000 {
        idle.notify();
    }
    let notify_ns = t.elapsed().as_nanos() as f64 / 100_000.0;
    (
        quantile_sorted(&lat_ns, 0.5) / 1e3,
        quantile_sorted(&lat_ns, 0.99) / 1e3,
        notify_ns,
    )
}

/// Run every probe. Matching rows carry the model's price of the work the
/// engine reported; the other rows name the constant that models them.
pub fn run() -> Vec<Row> {
    let costs = CoreCosts::default();
    let net = NetworkProfile::omni_path();
    let over = timer_overhead_ns();
    let mut rows = Vec::new();
    for kind in EngineKind::all() {
        for depth in [1usize, 1024] {
            for (op, s) in matching(kind, depth) {
                let work = s.work.expect("probe recorded samples");
                let model = costs.match_cost_of(&work).as_ns() as f64;
                rows.push(Row {
                    metric: format!("matching.{}.{op}.d{depth}_ns", kind.name()),
                    unit: "ns",
                    measured: (median(&s.ns) - over).max(0.0),
                    model: Some((
                        format!(
                            "match_cost_of(scanned={}, wildcard_scanned={})",
                            work.scanned, work.wildcard_scanned
                        ),
                        model,
                    )),
                });
            }
        }
    }
    let ns = |n: Nanos| n.as_ns() as f64;
    // Per-entry scan costs: the depth-1024 probe minus the depth-1 probe,
    // over the 1023 extra entries scanned.
    let measured = |rows: &[Row], name: &str| {
        rows.iter()
            .find(|r| r.metric == name)
            .expect("matching probe ran")
            .measured
    };
    for (engine, op, metric, constant, model) in [
        (
            "linear",
            "exact_hit",
            "matching.linear.per_scan_ns",
            "match_per_scan",
            costs.match_per_scan,
        ),
        (
            "bucketed",
            "wild_hit",
            "matching.bucketed.wildcard_per_scan_ns",
            "match_wildcard_per_scan",
            costs.match_wildcard_per_scan,
        ),
    ] {
        let hi = measured(&rows, &format!("matching.{engine}.{op}.d1024_ns"));
        let lo = measured(&rows, &format!("matching.{engine}.{op}.d1_ns"));
        rows.push(Row {
            metric: metric.into(),
            unit: "ns",
            measured: (hi - lo) / 1023.0,
            model: Some((constant.into(), ns(model))),
        });
    }
    for (channels, per) in [(4u32, 32u64), (255, 4)] {
        let (push, drain) = mailbox(channels, per);
        rows.push(Row {
            metric: format!("mailbox.push_ns.ch{channels}"),
            unit: "ns",
            measured: push,
            model: Some(("doorbell_batch_step".into(), ns(net.doorbell_batch_step))),
        });
        rows.push(Row {
            metric: format!("mailbox.drain_ns_per_msg.ch{channels}"),
            unit: "ns",
            measured: drain,
            model: Some(("recv_overhead".into(), ns(net.recv_overhead))),
        });
    }
    let (p50, p99, notify_ns) = notify_wake();
    rows.push(Row {
        metric: "notify.wake_us.p50".into(),
        unit: "us",
        measured: p50,
        model: None,
    });
    rows.push(Row {
        metric: "notify.wake_us.p99".into(),
        unit: "us",
        measured: p99,
        model: None,
    });
    rows.push(Row {
        metric: "notify.notify_ns".into(),
        unit: "ns",
        measured: notify_ns,
        model: Some(("doorbell".into(), ns(net.doorbell))),
    });
    rows
}

/// Every cost-model constant that stands for a software cost: its name, its
/// value in ns, and the per-layer metric that measures the same work.
pub fn model_constants() -> Vec<(&'static str, f64, &'static str)> {
    let c = CoreCosts::default();
    let n = NetworkProfile::omni_path();
    let ns = |x: Nanos| x.as_ns() as f64;
    vec![
        (
            "match_base",
            ns(c.match_base),
            "matching.linear.exact_hit.d1_ns",
        ),
        (
            "match_per_scan",
            ns(c.match_per_scan),
            "matching.linear.per_scan_ns",
        ),
        (
            "match_bucket_base",
            ns(c.match_bucket_base),
            "matching.bucketed.exact_hit.d1_ns",
        ),
        (
            "match_wildcard_per_scan",
            ns(c.match_wildcard_per_scan),
            "matching.bucketed.wildcard_per_scan_ns",
        ),
        (
            "match_merged_base",
            ns(c.match_merged_base),
            "matching.seq_merged.exact_hit.d1_ns",
        ),
        (
            "request_setup",
            ns(c.request_setup),
            "span.pt2pt.irecv.p50_ns",
        ),
        (
            "send_overhead",
            ns(n.send_overhead),
            "span.pt2pt.send.p50_ns",
        ),
        (
            "recv_overhead",
            ns(n.recv_overhead),
            "mailbox.drain_ns_per_msg.ch4",
        ),
        ("doorbell", ns(n.doorbell), "notify.notify_ns"),
        (
            "doorbell_batch_step",
            ns(n.doorbell_batch_step),
            "mailbox.push_ns.ch4",
        ),
    ]
}

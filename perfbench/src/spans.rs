//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public functions.
//! Every span carries `(rep, rank, tid, step)`, so the spans of one exchange
//! share an identifier, and its parent is the per-step (or per-round) span
//! with the same identifier — which is what makes self time computable. Recording is
//! switched on at run time; when it is off a span costs one relaxed load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Every span name the benchmark records. Parents come first; each child
/// belongs to the parent with the same `(rank, tid, step)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    PingpongIter,
    HaloStep,
    IncastRound,
    UniverseBuild,
    UniverseLaunch,
    StreamRun,
    Pt2ptSend,
    Pt2ptIrecv,
    RequestWait,
    Pt2ptIsendMulti,
    RequestWaitAll,
    Pt2ptRecvExact,
    Pt2ptRecvWild,
    CollBarrier,
}

impl Name {
    pub const ALL: [Name; 14] = [
        Name::PingpongIter,
        Name::HaloStep,
        Name::IncastRound,
        Name::UniverseBuild,
        Name::UniverseLaunch,
        Name::StreamRun,
        Name::Pt2ptSend,
        Name::Pt2ptIrecv,
        Name::RequestWait,
        Name::Pt2ptIsendMulti,
        Name::RequestWaitAll,
        Name::Pt2ptRecvExact,
        Name::Pt2ptRecvWild,
        Name::CollBarrier,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::PingpongIter => "pingpong.iter",
            Name::HaloStep => "halo.step",
            Name::IncastRound => "incast.round",
            Name::UniverseBuild => "universe.build",
            Name::UniverseLaunch => "universe.launch",
            Name::StreamRun => "stream.run",
            Name::Pt2ptSend => "pt2pt.send",
            Name::Pt2ptIrecv => "pt2pt.irecv",
            Name::RequestWait => "request.wait",
            Name::Pt2ptIsendMulti => "pt2pt.isend_multi",
            Name::RequestWaitAll => "request.wait_all",
            Name::Pt2ptRecvExact => "pt2pt.recv_exact",
            Name::Pt2ptRecvWild => "pt2pt.recv_wild",
            Name::CollBarrier => "coll.barrier",
        }
    }

    /// Whether this span is the per-step parent of the calls made in it.
    pub fn is_parent(self) -> bool {
        matches!(
            self,
            Name::PingpongIter | Name::HaloStep | Name::IncastRound
        )
    }
}

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub rep: u32,
    pub rank: u32,
    pub tid: u32,
    pub step: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static REP: AtomicU32 = AtomicU32::new(0);
static DONE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static BUF: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Switch recording on or off for the spans that start afterwards, which
/// belong to rep `rep`.
pub fn set_enabled(on: bool, rep: usize) {
    epoch();
    REP.store(rep as u32, Ordering::Relaxed);
    ON.store(on, Ordering::Relaxed);
}

/// Run `f` inside a span `name` identified by `(rank, tid, step)`.
#[inline]
pub fn span<R>(name: Name, rank: usize, tid: usize, step: usize, f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    record(Span {
        name,
        rep: 0,
        rank: rank as u32,
        tid: tid as u32,
        step: step as u32,
        start_ns: t0.duration_since(epoch()).as_nanos() as u64,
        dur_ns: t1.duration_since(t0).as_nanos() as u64,
    });
    out
}

/// Record a span measured by the caller (for intervals that do not wrap a
/// single call, such as a launch that ends on other threads). Its `rep` is
/// set to the current rep.
pub fn record(mut s: Span) {
    if ON.load(Ordering::Relaxed) {
        s.rep = REP.load(Ordering::Relaxed);
        BUF.with(|b| b.borrow_mut().push(s));
    }
}

/// Nanoseconds since the recorder's epoch, for [`record`].
pub fn stamp(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Move this thread's spans to the shared store. Every thread that records
/// calls this before it ends.
pub fn flush() {
    let mine = BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if !mine.is_empty() {
        DONE.lock().expect("span store poisoned").extend(mine);
    }
}

/// Take every flushed span.
pub fn take() -> Vec<Span> {
    flush();
    std::mem::take(&mut *DONE.lock().expect("span store poisoned"))
}

/// Per-name summary of a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub count: u64,
    /// Total duration minus the time covered by child spans, ms.
    pub self_ms: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// Summarise `spans` by name. A parent's self time excludes its children
/// (same `(rep, rank, tid, step)`); children never nest, so their durations
/// sum.
pub fn summarize(spans: &[Span]) -> Vec<(Name, Summary)> {
    use std::collections::HashMap;
    let id = |s: &Span| (s.rep, s.rank, s.tid, s.step);
    let mut child_ns: HashMap<(u32, u32, u32, u32), u64> = HashMap::new();
    for s in spans.iter().filter(|s| !s.name.is_parent()) {
        *child_ns.entry(id(s)).or_default() += s.dur_ns;
    }
    Name::ALL
        .iter()
        .map(|&name| {
            let mut durs: Vec<u64> = Vec::new();
            let mut self_ns = 0u64;
            for s in spans.iter().filter(|s| s.name == name) {
                durs.push(s.dur_ns);
                self_ns += if name.is_parent() {
                    let kids = child_ns.get(&id(s)).copied().unwrap_or(0);
                    s.dur_ns.saturating_sub(kids)
                } else {
                    s.dur_ns
                };
            }
            durs.sort_unstable();
            let sum = Summary {
                count: durs.len() as u64,
                self_ms: self_ns as f64 / 1e6,
                p50_ns: crate::stats::quantile_sorted(&durs, 0.5),
                p99_ns: crate::stats::quantile_sorted(&durs, 0.99),
            };
            (name, sum)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: Name, step: u32, dur_ns: u64) -> Span {
        Span {
            name,
            rep: 0,
            rank: 0,
            tid: 0,
            step,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn parent_self_time_excludes_children() {
        let spans = [
            sp(Name::HaloStep, 0, 1_000_000),
            sp(Name::Pt2ptIrecv, 0, 100_000),
            sp(Name::RequestWaitAll, 0, 600_000),
            sp(Name::HaloStep, 1, 500_000),
        ];
        let sums = summarize(&spans);
        let get = |n| sums.iter().find(|(m, _)| *m == n).unwrap().1;
        assert_eq!(get(Name::HaloStep).count, 2);
        assert!((get(Name::HaloStep).self_ms - 0.8).abs() < 1e-9);
        assert!((get(Name::RequestWaitAll).self_ms - 0.6).abs() < 1e-9);
        assert_eq!(get(Name::CollBarrier).count, 0);
    }
}

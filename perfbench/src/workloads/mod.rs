//! The four workloads. Each `rep` builds a fresh universe (or stream job),
//! runs a fixed amount of closed-loop work on it, checks every delivered
//! message, and returns one [`Rep`]. The loop in `main.rs` repeats reps
//! until the run's time is spent.

use std::time::Instant;

use rankmpi_core::{LaunchMode, TaskLaunch, Universe, UniverseBuilder};

use crate::counters::Counters;
use crate::spans::{self, Name, Span};
use crate::stamp::Check;

pub mod halo;
pub mod incast;
pub mod pingpong;
pub mod stream;

/// Step id of spans recorded before the timed loop starts.
pub const SETUP: usize = u32::MAX as usize;

/// A workload name as given on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pingpong,
    Halo1024,
    Incast,
    StreamLossy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Pingpong,
        Workload::Halo1024,
        Workload::Incast,
        Workload::StreamLossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pingpong => "pingpong",
            Workload::Halo1024 => "halo1024",
            Workload::Incast => "incast",
            Workload::StreamLossy => "stream_lossy",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Launch mode and worker count, for the report.
    pub fn launch_label(self, workers: usize) -> String {
        match self {
            Workload::Pingpong => "threads".into(),
            _ => format!("tasks(workers={workers})"),
        }
    }

    /// One rep of this workload.
    pub fn rep(self, cfg: &Config, rep: usize) -> Rep {
        match self {
            Workload::Pingpong => pingpong::rep(cfg, rep),
            Workload::Halo1024 => halo::rep(cfg, rep),
            Workload::Incast => incast::rep(cfg, rep),
            Workload::StreamLossy => stream::rep(cfg, rep),
        }
    }
}

/// Everything a rep needs: the inputs generated from the seed, the size,
/// and the fault-injection switch of the benchmark's own tests.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Small sizes for the benchmark's smoke tests.
    pub smoke: bool,
    /// Corrupt one payload after stamping it (tests the checks).
    pub corrupt_one: bool,
    /// Task-engine workers (at most the host's parallelism).
    pub workers: usize,
}

impl Config {
    /// Key that every payload stamp of rep `rep` is derived from.
    pub fn key(&self, rep: usize) -> u64 {
        crate::stamp::mix(self.seed ^ (rep as u64).rotate_left(32))
    }

    /// The cooperative rank-task launch every workload but `pingpong` uses.
    pub fn tasks(&self) -> LaunchMode {
        LaunchMode::Tasks(TaskLaunch {
            workers: self.workers,
            ..TaskLaunch::default()
        })
    }
}

/// What one rep measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Build plus launch until every rank reached its first timed operation.
    pub setup_s: f64,
    /// Wall time of the timed work.
    pub timed_s: f64,
    /// Process CPU time spent over the timed work, all threads.
    pub cpu_s: f64,
    /// Wall time of the whole rep, set-up included.
    pub wall_s: f64,
    /// Verified messages delivered.
    pub msgs: u64,
    /// Closed-loop iterations completed (round trips, thread-steps, rounds,
    /// stream items).
    pub items: u64,
    /// Wall latency of each iteration, ns.
    pub lat_ns: Vec<u64>,
    pub check: Check,
    /// Virtual time the run simulated (model output), ns.
    pub vtime_ns: u64,
    pub counters: Counters,
    pub credit_stalls: u64,
    pub reorder_peak: u64,
}

/// What one simulated thread reports back.
pub struct ThreadOut {
    /// When it left its set-up barrier, with the process CPU clock then.
    pub ready: (Instant, u64),
    /// When its last timed operation finished, with the process CPU clock.
    pub end: (Instant, u64),
    pub lat_ns: Vec<u64>,
    pub check: Check,
    /// Messages it received that passed their checks.
    pub delivered: u64,
    pub vtime_ns: u64,
}

/// Now, on the wall clock and the process CPU clock.
pub fn now() -> (Instant, u64) {
    (Instant::now(), crate::cpu::process_ns())
}

/// Build a universe inside a `universe.build` span.
pub fn build(b: UniverseBuilder) -> Universe {
    spans::span(Name::UniverseBuild, 0, 0, SETUP, || b.build())
}

/// Fold the per-thread outputs of one universe run into a [`Rep`].
/// `started` is when the build began, `launched` when `run` was called.
pub fn assemble(
    started: Instant,
    launched: Instant,
    outs: Vec<ThreadOut>,
    items: u64,
    counters: Counters,
) -> Rep {
    let (ready, ready_cpu) = outs
        .iter()
        .map(|o| o.ready)
        .min()
        .expect("at least one thread");
    let (end, end_cpu) = outs
        .iter()
        .map(|o| o.end)
        .max()
        .expect("at least one thread");
    spans::record(Span {
        name: Name::UniverseLaunch,
        rep: 0,
        rank: 0,
        tid: 0,
        step: SETUP as u32,
        start_ns: spans::stamp(launched),
        dur_ns: ready.saturating_duration_since(launched).as_nanos() as u64,
    });
    let mut rep = Rep {
        setup_s: ready.duration_since(started).as_secs_f64(),
        timed_s: end.saturating_duration_since(ready).as_secs_f64(),
        cpu_s: end_cpu.saturating_sub(ready_cpu) as f64 / 1e9,
        wall_s: started.elapsed().as_secs_f64(),
        items,
        counters,
        ..Rep::default()
    };
    for o in outs {
        rep.lat_ns.extend(o.lat_ns);
        rep.check.merge(&o.check);
        rep.msgs += o.delivered;
        rep.vtime_ns = rep.vtime_ns.max(o.vtime_ns);
    }
    rep
}

//! `stream_lossy`: a `run_stream` farm (4 workers × 2 threads, tags+vci,
//! 512-byte items) under 1% wire drops, as cooperative rank-tasks. The only
//! workload on the fault-plan (locked) mailbox path, `resil` retransmission,
//! and stream credits and reordering. A rep is one stream job; `run_stream`
//! itself verifies every item exactly once, in order.

use std::time::Instant;

use rankmpi_core::EngineKind;
use rankmpi_fabric::FaultPlan;
use rankmpi_stream::{run_stream, Mechanism, StreamConfig, Topology};

use super::{Config, Rep};
use crate::counters;
use crate::spans::{span, Name};
use crate::stamp::{self, Check};

const DROP_PROB: f64 = 0.01;

fn items(cfg: &Config) -> u64 {
    if cfg.smoke {
        200
    } else {
        1_000
    }
}

fn stream_config(cfg: &Config, rep: usize, items: u64) -> StreamConfig {
    let key = cfg.key(rep);
    StreamConfig {
        topology: Topology::Farm {
            workers: 4,
            threads: 2,
        },
        mechanism: Mechanism::TagsVci,
        items,
        item_bytes: 512,
        credits: 48,
        credit_batch: 8,
        seed: key,
        matching: EngineKind::default(),
        launch: cfg.tasks(),
        fault_plan: Some(FaultPlan::new(stamp::mix(key ^ 0xD809)).drops(DROP_PROB)),
        ..StreamConfig::default()
    }
}

pub fn rep(cfg: &Config, rep: usize) -> Rep {
    let n = items(cfg);
    // `run_stream` builds its universe inside, so set-up is timed as a
    // one-item job: build, launch, transport set-up, one item, teardown.
    let one = stream_config(cfg, rep, 1);
    let started = Instant::now();
    let first = span(Name::StreamRun, 0, 0, rep, || run_stream(&one));
    let setup_s = started.elapsed().as_secs_f64();

    let job = stream_config(cfg, rep, n);
    let scope = counters::begin();
    let t = Instant::now();
    let cpu0 = crate::cpu::process_ns();
    let report = span(Name::StreamRun, 0, 0, rep, || run_stream(&job));
    let cpu_s = crate::cpu::process_ns().saturating_sub(cpu0) as f64 / 1e9;
    let timed = t.elapsed();
    let counters = scope.end();

    let mut check = Check::default();
    for (r, want) in [(&first, 1), (&report, n)] {
        let ok = r.verified && r.delivered == want;
        check.attempted += want;
        if !ok {
            check.failed += want - r.delivered.min(want);
            check.first_failure.get_or_insert(format!(
                "stream job delivered {} of {want} items (verified: {})",
                r.delivered, r.verified
            ));
        }
    }
    let delivered = if report.verified { report.delivered } else { 0 };
    Rep {
        setup_s,
        timed_s: timed.as_secs_f64(),
        cpu_s,
        wall_s: started.elapsed().as_secs_f64(),
        msgs: delivered,
        items: delivered,
        lat_ns: vec![timed.as_nanos() as u64],
        check,
        vtime_ns: report.elapsed.as_ns(),
        counters,
        credit_stalls: report.credit_stalls,
        reorder_peak: report.reorder_peak as u64,
    }
}

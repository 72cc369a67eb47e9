//! `perfbench`: the wall-clock benchmark of rankmpi.
//!
//! ```text
//! perfbench --workload <pingpong|halo1024|incast|stream_lossy> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--corrupt-one] [--out <dir>]
//! ```
//!
//! With `--trace 0` it repeats the workload for `--seconds`, checks every
//! delivered message, and prints the end-to-end metrics. With `--trace 1` it
//! runs the layer probes, then alternates untraced and traced reps of the
//! workload and prints the per-layer metrics: span summaries, run-scoped
//! counter ratios, probe timings, and the tracing overhead. Either way the
//! last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! non-zero if any operation failed.

mod counters;
mod cpu;
mod probes;
mod report;
mod spans;
mod stamp;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use counters::ratio;
use report::{Host, Metric};
use stats::{median, supported_tail, Histogram};
use workloads::{Config, Rep, Workload};

const USAGE: &str = "usage: perfbench --workload <pingpong|halo1024|incast|stream_lossy> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt-one] [--out <dir>]";

/// Longest a run may take before the watchdog ends it: a lost message would
/// otherwise block a closed loop forever.
const DEADLINE: Duration = Duration::from_secs(170);

/// Task-engine workers (capped at the host's parallelism): the benchmark
/// keeps at most two OS threads busy.
const WORKERS: usize = 2;

/// Fewest reps a run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    corrupt_one: bool,
    out: PathBuf,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut smoke, mut corrupt_one, mut out) = (false, false, report::default_out_dir());
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
                }
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err("--seconds must be in (0, 120]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    })
                }
                "--smoke" => smoke = true,
                "--corrupt-one" => corrupt_one = true,
                "--out" => out = PathBuf::from(value()?),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
            corrupt_one,
            out,
        })
    }
}

/// End the process if the run hangs, before any outer time limit does.
fn start_watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("perfbench: no result after {DEADLINE:?}; a message was lost or a rank hung");
        std::process::exit(3);
    });
}

/// Repeat reps until `seconds` have passed (and at least [`MIN_REPS`]).
/// A first warm-up rep fills caches and finishes lazy set-up; it is checked
/// but not measured. With `traced`, every other rep records spans, so
/// traced and untraced reps interleave under the same host conditions.
/// Untraced reps pool their latency samples into `lat` (and drop them), so
/// the memory the benchmark keeps does not grow with the run.
fn run_reps(
    args: &Args,
    cfg: &Config,
    traced: bool,
    lat: &mut Histogram,
) -> (stamp::Check, Vec<Rep>, Vec<Rep>) {
    let warm_up = args.workload.rep(cfg, 0).check;
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 1;
    while plain.len() + with_spans.len() < MIN_REPS.max(2 * traced as usize)
        || start.elapsed().as_secs_f64() < args.seconds
    {
        let on = traced && i % 2 == 0;
        spans::set_enabled(on, i);
        let mut rep = args.workload.rep(cfg, i);
        spans::set_enabled(false, i);
        if on {
            with_spans.push(rep);
        } else {
            for ns in std::mem::take(&mut rep.lat_ns) {
                lat.record(ns);
            }
            plain.push(rep);
        }
        i += 1;
    }
    (warm_up, plain, with_spans)
}

fn per_rep(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// The end-to-end metrics of an untraced run: the bounded set, which is the
/// result, and an unbounded set printed and recorded beside it — the
/// wall-clock rates and the run-scoped layer counts. Wall-clock rates move
/// with the CPU time the hypervisor steals from a shared host, so they carry
/// no bound; CPU time per message does not.
fn end_to_end(reps: &[Rep], lat: &Histogram) -> (Vec<Metric>, Vec<Metric>, String) {
    let all: Vec<&Rep> = reps.iter().collect();
    let tail = supported_tail(lat.len() as usize);
    let bounded = vec![
        Metric::new("setup_s", "s", per_rep(&all, |r| r.setup_s)),
        Metric::new(
            "cpu_us_per_msg",
            "us",
            per_rep(&all, |r| r.cpu_s * 1e6 / r.msgs as f64),
        ),
        Metric::new("peak_rss_mb", "MiB", report::peak_rss_mb()),
    ];
    let wall = vec![
        Metric::new("rtt_us_p50", "us", lat.quantile(0.5) / 1e3),
        Metric::new("rtt_us_p99", "us", lat.quantile(0.99) / 1e3),
        Metric::new(
            "msgs_per_s",
            "1/s",
            per_rep(&all, |r| r.msgs as f64 / r.timed_s),
        ),
        Metric::new(
            "items_per_s",
            "1/s",
            per_rep(&all, |r| r.items as f64 / r.timed_s),
        ),
    ];
    let note = format!(
        "reps: {} (setup_s and rates are medians over reps); latency samples: {} \
         (highest tail with >=10 samples beyond it: {tail})",
        reps.len(),
        lat.len()
    );
    let all_counts = counter_metrics(&all);
    (bounded, wall.into_iter().chain(all_counts).collect(), note)
}

/// Run-scoped layer counts, each the median over `reps` of one rep's
/// ratio or count.
fn counter_metrics(reps: &[&Rep]) -> Vec<Metric> {
    let c = |f: fn(&Rep) -> f64| per_rep(reps, f);
    vec![
        Metric::new(
            "engine.task_switches_per_msg",
            "ratio",
            c(|r| ratio(r.counters.task_switches, r.msgs)),
        ),
        Metric::new(
            "engine.steps_per_msg",
            "ratio",
            c(|r| ratio(r.counters.engine_steps, r.msgs)),
        ),
        Metric::new(
            "engine.parked_peak",
            "count",
            c(|r| r.counters.parked_peak as f64),
        ),
        Metric::new(
            "mailbox.spill_share",
            "ratio",
            c(|r| r.counters.spill_share()),
        ),
        Metric::new(
            "vci.scanned_per_match",
            "ratio",
            c(|r| ratio(r.counters.match_scanned, r.counters.matched)),
        ),
        Metric::new(
            "vci.wildcard_scanned_per_match",
            "ratio",
            c(|r| ratio(r.counters.match_wildcard_scanned, r.counters.matched)),
        ),
        Metric::new(
            "vci.doorbells_per_msg",
            "ratio",
            c(|r| ratio(r.counters.doorbells, r.msgs)),
        ),
        Metric::new(
            "vci.lock_contended_share",
            "ratio",
            c(|r| ratio(r.counters.lock_acquires_contended, r.counters.lock_acquires)),
        ),
        Metric::new(
            "resil.retransmits_per_item",
            "ratio",
            c(|r| ratio(r.counters.retransmits, r.items)),
        ),
        Metric::new(
            "resil.spurious_rexmit",
            "count",
            c(|r| r.counters.spurious_rexmit as f64),
        ),
        Metric::new(
            "fault.dups_dropped",
            "count",
            c(|r| r.counters.dups_dropped as f64),
        ),
        Metric::new(
            "stream.credit_stalls",
            "count",
            c(|r| r.credit_stalls as f64),
        ),
        Metric::new("stream.reorder_peak", "count", c(|r| r.reorder_peak as f64)),
        Metric::new(
            "arena.fresh_alloc_share",
            "ratio",
            c(|r| r.counters.fresh_alloc_share()),
        ),
    ]
}

fn per_layer(
    plain: &[Rep],
    traced: &[Rep],
    probes: &[probes::Row],
    spans: &[spans::Span],
) -> Vec<Metric> {
    let mut m: Vec<Metric> = probes
        .iter()
        .map(|p| Metric::new(p.metric.clone(), p.unit, p.measured))
        .collect();
    let all: Vec<&Rep> = plain.iter().chain(traced).collect();
    m.extend(counter_metrics(&all));
    let vt: Vec<f64> = all.iter().map(|r| r.vtime_ns as f64).collect();
    let spread =
        vt.iter().cloned().fold(f64::MIN, f64::max) - vt.iter().cloned().fold(f64::MAX, f64::min);
    let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    m.extend([
        Metric::new("vtime.elapsed_ns", "ns", median(&vt)),
        Metric::new("vtime.elapsed_ns_spread", "ns", spread),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            wall(traced) / wall(plain) - 1.0,
        ),
    ]);
    for (name, s) in spans::summarize(spans) {
        let n = name.as_str();
        m.extend([
            Metric::new(format!("span.{n}.count"), "count", s.count as f64),
            Metric::new(format!("span.{n}.self_ms"), "ms", s.self_ms),
            Metric::new(format!("span.{n}.p50_ns"), "ns", s.p50_ns),
            Metric::new(format!("span.{n}.p99_ns"), "ns", s.p99_ns),
        ]);
    }
    m
}

/// The model-vs-measured table: each probe beside the model's price, then
/// each software-cost constant beside its nearest measured counterpart.
fn model_table(probes: &[probes::Row], metrics: &[Metric]) -> Vec<String> {
    let mut lines = vec!["model vs measured (ns unless noted):".to_string()];
    for p in probes {
        if let Some((what, ns)) = &p.model {
            lines.push(format!(
                "  {:<40} measured {:>10.1} {:<3} | model {:>8.1} ns  ({what})",
                p.metric, p.measured, p.unit, ns
            ));
        }
    }
    for (constant, ns, counterpart) in probes::model_constants() {
        let measured = metrics
            .iter()
            .find(|m| m.name == counterpart && m.value > 0.0)
            .map_or("not reached by this workload".into(), |m| {
                format!("{:.1}", m.value)
            });
        lines.push(format!(
            "  {constant:<24} model {ns:>8.1} | {counterpart} = {measured}"
        ));
    }
    lines
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    start_watchdog();
    let host = Host::detect();
    let cfg = Config {
        seed: args.seed,
        smoke: args.smoke,
        corrupt_one: args.corrupt_one,
        workers: WORKERS.min(host.nproc),
    };
    let w = args.workload;
    let meta = format!(
        "host: nproc={} cpu={:?} rustc={:?} commit={} launch={} workers={} seed={} workload={} seconds={} trace={}",
        host.nproc,
        host.cpu,
        host.rustc,
        host.commit,
        w.launch_label(cfg.workers),
        cfg.workers,
        args.seed,
        w.name(),
        args.seconds,
        args.trace as u8,
    );
    println!("{meta}");

    let probes = if args.trace {
        probes::run()
    } else {
        Vec::new()
    };
    let (host0, cpu0) = (report::HostCpu::read(), cpu::process_ns());
    let t0 = Instant::now();
    let mut lat = Histogram::default();
    let (warm_up, plain, traced) = run_reps(&args, &cfg, args.trace, &mut lat);
    let steal = report::HostCpu::read().steal_share_since(&host0);
    let cpu_s = cpu::process_ns().saturating_sub(cpu0) as f64 / 1e9;
    let host_load = format!(
        "host load over the reps: {:.1}% of host CPU time stolen by the hypervisor; process CPU {cpu_s:.2} s in {:.2} s wall",
        steal * 100.0,
        t0.elapsed().as_secs_f64()
    );
    let spans = spans::take();
    let (metrics, unbounded, mut notes) = if args.trace {
        let m = per_layer(&plain, &traced, &probes, &spans);
        let notes = model_table(&probes, &m);
        (m, Vec::new(), notes)
    } else {
        let (m, unbounded, note) = end_to_end(&plain, &lat);
        (m, unbounded, vec![note])
    };

    let mut check = warm_up;
    for r in plain.iter().chain(&traced) {
        check.merge(&r.check);
    }
    notes.push(host_load);
    if let Some(f) = &check.first_failure {
        notes.push(format!(
            "FAILED: {} of {} operations; first: {f}",
            check.failed, check.attempted
        ));
    }
    for line in &notes {
        println!("{line}");
    }
    for m in metrics.iter().chain(&unbounded) {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }

    let mode = if args.trace { "traced" } else { "timed" };
    let stem = format!("{}-seed{}-{mode}", w.name(), args.seed);
    let correct = check.failed == 0;
    let result = report::result_line(correct, check.attempted, check.failed, &metrics);
    let reps: Vec<String> = plain
        .iter()
        .map(|r| (r, false))
        .chain(traced.iter().map(|r| (r, true)))
        .map(|(r, t)| {
            format!(
                "{{\"traced\": {t}, \"setup_s\": {}, \"timed_s\": {}, \"cpu_s\": {}, \"wall_s\": {}, \
                 \"msgs\": {}, \"items\": {}, \"vtime_ns\": {}, \"failed\": {}}}",
                r.setup_s,
                r.timed_s,
                r.cpu_s,
                r.wall_s,
                r.msgs,
                r.items,
                r.vtime_ns,
                r.check.failed
            )
        })
        .collect();
    let file = format!(
        "{{\"meta\": {}, \"notes\": [{}], \"unbounded\": {}, \"reps\": [{}], \"result\": {result}}}\n",
        report::quote(&meta),
        notes.iter().map(|n| report::quote(n)).collect::<Vec<_>>().join(", "),
        report::metrics_json(&unbounded),
        reps.join(", ")
    );
    report::write_file(&args.out, &format!("{stem}.json"), &file);
    if args.trace {
        let mut tsv = String::from("name\trep\trank\ttid\tstep\tstart_ns\tdur_ns\n");
        for s in &spans {
            let step = if s.step == u32::MAX {
                "setup".to_string()
            } else {
                s.step.to_string()
            };
            tsv.push_str(&format!(
                "{}\t{}\t{}\t{}\t{step}\t{}\t{}\n",
                s.name.as_str(),
                s.rep,
                s.rank,
                s.tid,
                s.start_ns,
                s.dur_ns
            ));
        }
        report::write_file(&args.out, &format!("{stem}-spans.tsv"), &tsv);
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

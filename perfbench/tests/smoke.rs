//! Reduced-size runs of every workload through the real binary: each must
//! finish, verify every message, and print the result line; a corrupted
//! payload must fail the run.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["pingpong", "halo1024", "incast", "stream_lossy"];

struct Run {
    code: i32,
    last_line: String,
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> Run {
    // One directory per distinct run, since the tests run concurrently.
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{trace}-{}", extra.join("")));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--smoke",
        ])
        .arg("--out")
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("run the benchmark binary");
    let _ = std::fs::remove_dir_all(&out_dir);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Run {
        code: out.status.code().unwrap_or(-1),
        last_line: stdout.lines().last().unwrap_or_default().to_string(),
    }
}

/// The value of `"key": <value>` in the result line (flat keys only).
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + key.len()
        + 4;
    let rest = &line[start..];
    &rest[..rest.find([',', '}']).expect("value ends")]
}

#[test]
fn every_workload_runs_untraced_and_verifies() {
    for w in WORKLOADS {
        let r = run(w, "0", &[]);
        assert_eq!(r.code, 0, "{w}: {}", r.last_line);
        assert_eq!(field(&r.last_line, "correct"), "true", "{w}");
        assert_eq!(field(&r.last_line, "failed"), "0", "{w}");
        assert!(
            field(&r.last_line, "attempted")
                .parse::<u64>()
                .expect("count")
                > 0,
            "{w}"
        );
        for m in ["setup_s", "cpu_us_per_msg", "peak_rss_mb"] {
            assert!(
                r.last_line.contains(&format!("\"{m}\": {{\"value\": ")),
                "{w} lacks {m}"
            );
        }
    }
}

#[test]
fn every_workload_runs_traced() {
    for w in WORKLOADS {
        let r = run(w, "1", &[]);
        assert_eq!(r.code, 0, "{w}: {}", r.last_line);
        for m in [
            "mailbox.spill_share",
            "matching.seq_merged.exact_hit.d1024_ns",
            "span.universe.build.count",
            "trace.overhead_frac",
        ] {
            assert!(
                r.last_line.contains(&format!("\"{m}\": {{\"value\": ")),
                "{w} lacks {m}"
            );
        }
    }
}

#[test]
fn a_corrupted_payload_fails_the_run() {
    for w in ["pingpong", "halo1024", "incast"] {
        let r = run(w, "0", &["--corrupt-one"]);
        assert_ne!(r.code, 0, "{w} must fail: {}", r.last_line);
        assert_eq!(field(&r.last_line, "correct"), "false", "{w}");
        assert_ne!(field(&r.last_line, "failed"), "0", "{w}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

//! Records the toolchain and source revision the benchmark was built from, so
//! every report can name them.

use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version =
        first_line(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    // A source export without git metadata has no revision to report.
    let commit = std::path::Path::new("../.git")
        .exists()
        .then(|| {
            first_line(Command::new("git").args(["-C", "..", "rev-parse", "--short=12", "HEAD"]))
        })
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-stamp the revision after a commit, when there is a repository.
    for path in ["../.git/HEAD", "../.git/refs/heads"] {
        if std::path::Path::new(path).exists() {
            println!("cargo:rerun-if-changed={path}");
        }
    }
}

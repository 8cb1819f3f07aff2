//! Workspace automation (the cargo-xtask pattern: a plain binary crate,
//! no build dependencies).
//!
//! `cargo xtask verify` runs the exact step sequence of
//! `.github/workflows/ci.yml` — format, clippy, release build, the whole
//! workspace's tests, docs, the experiments binary, the gated quickbench,
//! the `ptbench --smoke` end-to-end run, and the criterion bench smokes —
//! so the local verification recipe and CI cannot drift: editing one
//! means editing [`STEPS`], which is what both consume.
//!
//! `cargo xtask bench --quick` runs the quickbench harness, writes
//! `target/BENCH.json`, and fails when a cold e8/e13 scenario's time
//! relative to a same-run SHA-256 reference is >25% over
//! `BENCH_BASELINE.json`, `e17_gem_mesh` or `e18_serving` is >3x over
//! it, or any deterministic work counter (resolution steps, serving
//! admission decisions) differs from its baseline at all.

use std::process::Command;

/// One CI step: display name, cargo arguments, extra environment.
struct Step {
    name: &'static str,
    cargo_args: &'static [&'static str],
    env: &'static [(&'static str, &'static str)],
}

const fn step(
    name: &'static str,
    cargo_args: &'static [&'static str],
    env: &'static [(&'static str, &'static str)],
) -> Step {
    Step {
        name,
        cargo_args,
        env,
    }
}

/// The CI pipeline, in `.github/workflows/ci.yml` order.
const STEPS: &[Step] = &[
    step("format", &["fmt", "--check"], &[]),
    step(
        "clippy",
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
        &[],
    ),
    step("build (release)", &["build", "--release"], &[]),
    step("test", &["test", "-q"], &[]),
    step(
        "docs",
        &["doc", "--workspace", "--no-deps"],
        &[("RUSTDOCFLAGS", "-D warnings")],
    ),
    step(
        "experiments (writes target/metrics.json + target/timeline.jsonl + target/trace.json)",
        &[
            "run",
            "--release",
            "-p",
            "peertrust-bench",
            "--bin",
            "experiments",
        ],
        &[],
    ),
    step(
        "quick bench (baseline gates + exact work counters)",
        &[
            "run",
            "--release",
            "-p",
            "peertrust-bench",
            "--bin",
            "quickbench",
            "--",
            "--quick",
            "--out",
            "target/BENCH.json",
            "--baseline",
            "BENCH_BASELINE.json",
        ],
        &[],
    ),
    step(
        "ptbench smoke (pinned E1/E2/E3 outcomes, safe disclosure sequences)",
        &[
            "run",
            "--release",
            "-p",
            "peertrust-bench",
            "--bin",
            "ptbench",
            "--",
            "--smoke",
        ],
        &[],
    ),
    step(
        "bench smoke (e13_caching)",
        &[
            "bench",
            "-p",
            "peertrust-bench",
            "--bench",
            "e13_caching",
            "--",
            "--measurement-time",
            "1",
        ],
        &[],
    ),
    step(
        "bench smoke (e14_throughput)",
        &[
            "bench",
            "-p",
            "peertrust-bench",
            "--bench",
            "e14_throughput",
            "--",
            "--measurement-time",
            "1",
        ],
        &[],
    ),
    step(
        "bench smoke (e15_resilience)",
        &[
            "bench",
            "-p",
            "peertrust-bench",
            "--bench",
            "e15_resilience",
            "--",
            "--measurement-time",
            "1",
        ],
        &[],
    ),
    step(
        "bench smoke (e17_gem)",
        &[
            "bench",
            "-p",
            "peertrust-bench",
            "--bench",
            "e17_gem",
            "--",
            "--measurement-time",
            "1",
        ],
        &[],
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("verify") => verify(),
        Some("bench") => bench(args.iter().any(|a| a == "--quick")),
        _ => {
            eprintln!("usage: cargo xtask <verify | bench [--quick]>");
            std::process::exit(2);
        }
    }
}

/// Run the quickbench harness: the `target/BENCH.json` artifact and hard
/// failures on the `BENCH_BASELINE.json` regression gates and the exact
/// work-counter check.
fn bench(quick: bool) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cargo_args: Vec<&str> = vec![
        "run",
        "--release",
        "-p",
        "peertrust-bench",
        "--bin",
        "quickbench",
        "--",
        "--out",
        "target/BENCH.json",
        "--baseline",
        "BENCH_BASELINE.json",
    ];
    if quick {
        cargo_args.push("--quick");
    }
    println!("== xtask bench{} ==", if quick { " --quick" } else { "" });
    let status = Command::new(&cargo)
        .args(&cargo_args)
        .status()
        .unwrap_or_else(|e| {
            eprintln!("xtask bench: failed to spawn cargo: {e}");
            std::process::exit(1);
        });
    if !status.success() {
        eprintln!("xtask bench: quickbench failed (regression or error)");
        std::process::exit(status.code().unwrap_or(1));
    }
    println!("xtask bench: wrote target/BENCH.json");
}

fn verify() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    for s in STEPS {
        println!("== xtask verify: {} ==", s.name);
        let mut cmd = Command::new(&cargo);
        cmd.args(s.cargo_args);
        for (k, v) in s.env {
            cmd.env(k, v);
        }
        let status = cmd.status().unwrap_or_else(|e| {
            eprintln!("xtask verify: failed to spawn cargo for '{}': {e}", s.name);
            std::process::exit(1);
        });
        if !status.success() {
            eprintln!("xtask verify: step '{}' failed", s.name);
            std::process::exit(status.code().unwrap_or(1));
        }
    }
    println!("xtask verify: all steps passed");
}

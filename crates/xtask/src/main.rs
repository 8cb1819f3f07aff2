//! Workspace automation (the cargo-xtask pattern: a plain binary crate,
//! no build dependencies).
//!
//! `cargo xtask verify` runs the exact step sequence of
//! `.github/workflows/ci.yml` — format, clippy, release build, the whole
//! workspace's tests, docs, the experiments binary, the gated quickbench,
//! the `ptbench --smoke` end-to-end run, a build of ptbench's stand-alone
//! manifest that must leave its `Cargo.lock` untouched, and the criterion
//! bench smokes — so the local verification recipe and CI cannot drift:
//! editing one means editing [`STEPS`], which is what both consume.
//!
//! `cargo xtask bench --quick` runs the quickbench harness, writes
//! `target/BENCH.json`, and fails when a cold e8/e13 scenario's time
//! relative to a same-run SHA-256 reference is >25% over
//! `BENCH_BASELINE.json`, `e17_gem_mesh` or `e18_serving` is >3x over
//! it, or any deterministic work counter (resolution steps, serving
//! admission decisions) differs from its baseline at all.
//!
//! `cargo xtask soak [--rounds N] [--seed BASE]` runs the workspace tests
//! N times (default 8) with `PROPTEST_SEED` = BASE + round and
//! `PROPTEST_CASES` raised to [`SOAK_CASES`], so the property tests
//! explore new inputs on every round. BASE defaults to the clock. Each
//! round runs every test binary (`--no-fail-fast`); a failing round
//! prints its seed and the command that replays it. The soak is not part
//! of `verify` or CI: its inputs change run to run.

use std::process::Command;

/// One CI step: display name, cargo arguments, extra environment, and a
/// file the step must leave byte-identical.
struct Step {
    name: &'static str,
    cargo_args: &'static [&'static str],
    env: &'static [(&'static str, &'static str)],
    unchanged: Option<&'static str>,
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
        unchanged: None,
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
    // A plain build rewrites the lock file when a path crate's
    // dependencies change; `--locked` would leave it stale and succeed.
    Step {
        name: "ptbench stand-alone build (the manifest BENCHMARK.json runs; must not rewrite its Cargo.lock)",
        cargo_args: &[
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            "crates/bench/src/bin/ptbench/Cargo.toml",
        ],
        env: &[],
        unchanged: Some("crates/bench/src/bin/ptbench/Cargo.lock"),
    },
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

const USAGE: &str =
    "usage: cargo xtask <verify | bench [--quick] | soak [--rounds N] [--seed BASE]>";

/// Property-test cases per test in each soak round (the default is 256).
const SOAK_CASES: u32 = 1024;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("verify") => verify(),
        Some("bench") => bench(args.iter().any(|a| a == "--quick")),
        Some("soak") => soak(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Run the workspace tests once per round under a fresh proptest seed.
fn soak(args: &[String]) {
    let (mut rounds, mut base) = (8u64, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next().and_then(|v| v.parse().ok())) {
            ("--rounds", Some(n)) => rounds = n,
            ("--seed", Some(n)) => base = Some(n),
            _ => {
                eprintln!("xtask soak: bad argument {flag}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let base = base.unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs())
    });
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    println!("== xtask soak: {rounds} rounds from seed {base}, {SOAK_CASES} cases ==");
    for round in 0..rounds {
        let seed = base.wrapping_add(round);
        println!("== xtask soak: round {round}, PROPTEST_SEED={seed} ==");
        let status = Command::new(&cargo)
            .args(["test", "-q", "--no-fail-fast"])
            .env("PROPTEST_SEED", seed.to_string())
            .env("PROPTEST_CASES", SOAK_CASES.to_string())
            .status()
            .unwrap_or_else(|e| {
                eprintln!("xtask soak: failed to spawn cargo: {e}");
                std::process::exit(1);
            });
        if !status.success() {
            eprintln!(
                "xtask soak: round {round} failed with PROPTEST_SEED={seed}; replay with\n  \
                 PROPTEST_SEED={seed} PROPTEST_CASES={SOAK_CASES} cargo test -q"
            );
            std::process::exit(status.code().unwrap_or(1));
        }
    }
    println!("xtask soak: {rounds} rounds passed");
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
    let read = |path: &str| {
        std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("xtask verify: cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    for s in STEPS {
        println!("== xtask verify: {} ==", s.name);
        let before = s.unchanged.map(read);
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
        if let (Some(path), Some(before)) = (s.unchanged, before) {
            if read(path) != before {
                eprintln!("xtask verify: step '{}' rewrote {path}", s.name);
                std::process::exit(1);
            }
        }
    }
    println!("xtask verify: all steps passed");
}

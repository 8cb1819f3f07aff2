//! ptbench: the end-to-end negotiation benchmark, with a per-layer
//! wall-clock trace.
//!
//! ```text
//! ptbench [--seed N] [--secs S] [--out-dir DIR] [--run NAME] [--smoke]
//! ptbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ptbench --compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! Without `--workload`, every workload runs in its own child process,
//! one after another, so peak memory is measured per workload; the
//! command prints every end-to-end metric and a per-layer table, and
//! writes `<out-dir>/<run>.json` plus `trace_<workload>.json` per
//! workload. With `--workload` one workload runs in this process and the
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics, or with
//! `--trace 1` the per-layer ones. `--smoke` runs every workload for 1 s.
//! `--compare` applies the bounds of BENCHMARK.json (read from the working
//! directory) to two sets of run files.
//! The exit code is non-zero when any outcome was wrong or, under
//! `--compare`, when a metric regressed. See README.md in this directory.

mod measure;
mod stats;
mod trace;
mod workloads;

use measure::{Metric, Report, Settings};
use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SECS: f64 = 15.0;

struct Args {
    seed: u64,
    secs: f64,
    workload: Option<String>,
    trace: bool,
    smoke: bool,
    /// Child mode: print the whole report as the last line.
    full: bool,
    run: Option<String>,
    out_dir: PathBuf,
    compare: Option<(Vec<PathBuf>, Vec<PathBuf>)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        secs: DEFAULT_SECS,
        workload: None,
        trace: false,
        smoke: false,
        full: false,
        run: None,
        out_dir: PathBuf::from("target/ptbench"),
        compare: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--secs" | "--seconds" => {
                a.secs = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
                if !(a.secs > 0.0 && a.secs.is_finite()) {
                    return Err(format!("{flag} must be positive"));
                }
            }
            "--workload" => a.workload = Some(value()?),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--run" => a.run = Some(value()?),
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--smoke" => a.smoke = true,
            "--full" => a.full = true,
            "--compare" => {
                let rest: Vec<&String> = it.by_ref().collect();
                let split = rest
                    .iter()
                    .position(|s| *s == "--")
                    .ok_or("--compare needs PARENT... -- CHANGE...")?;
                let files = |s: &[&String]| s.iter().map(PathBuf::from).collect::<Vec<_>>();
                let (parent, change) = (files(&rest[..split]), files(&rest[split + 1..]));
                if parent.is_empty() || change.is_empty() {
                    return Err("--compare needs at least one run file per side".into());
                }
                a.compare = Some((parent, change));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.smoke {
        a.secs = 1.0;
    }
    if let Some(w) = &a.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; expected one of {}",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ptbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.compare, &args.workload) {
        (Some((parent, change)), _) => compare_runs(parent, change),
        (None, Some(w)) => one_workload(w, &args),
        (None, None) => all_workloads(&args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ptbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn settings(args: &Args) -> Settings {
    Settings {
        seed: args.seed,
        secs: args.secs,
        trace: args.trace,
        out_dir: args.out_dir.clone(),
    }
}

/// Run one workload in this process, on one worker thread with a stack
/// deep enough for the nested negotiations.
fn one_workload(name: &str, args: &Args) -> Result<bool, String> {
    let s = settings(args);
    let owned = name.to_string();
    let report = std::thread::Builder::new()
        .name("ptbench-worker".into())
        .stack_size(256 << 20)
        .spawn(move || measure::run(&owned, &s))
        .map_err(|e| format!("spawn worker: {e}"))?
        .join()
        .map_err(|_| "worker thread panicked".to_string())?
        .ok_or_else(|| format!("unknown workload {name}"))?;
    if args.full {
        println!("{}", report.to_json());
        return Ok(report.correct);
    }
    print_single(&report, args);
    let run = args
        .run
        .clone()
        .unwrap_or_else(|| format!("{name}-seed{}", args.seed));
    write_run(&args.out_dir, &run, args, std::slice::from_ref(&report))?;
    println!("{}", report.contract_line(args.trace));
    Ok(report.correct)
}

/// Every workload, each in a child process of its own.
fn all_workloads(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut reports = Vec::new();
    for name in workloads::NAMES {
        eprintln!("ptbench: running {name} ({} s)", args.secs);
        let out = Command::new(&exe)
            .args(["--workload", name, "--trace", "1", "--full"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--secs", &args.secs.to_string()])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let report = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str::<Value>(l).ok())
            .and_then(|v| Report::from_json(&v))
            .ok_or_else(|| format!("{name} printed no report ({})", out.status))?;
        reports.push(report);
    }
    print_tables(&reports, args);
    let run = args
        .run
        .clone()
        .unwrap_or_else(|| format!("seed{}", args.seed));
    write_run(&args.out_dir, &run, args, &reports)?;
    Ok(reports.iter().all(|r| r.correct))
}

fn write_run(dir: &Path, run: &str, args: &Args, reports: &[Report]) -> Result<(), String> {
    let doc = Value::Object(vec![
        ("seed".into(), Value::Number(Number::U64(args.seed))),
        ("secs".into(), Value::Number(Number::F64(args.secs))),
        (
            "workloads".into(),
            Value::Array(reports.iter().map(Report::to_json).collect()),
        ),
    ]);
    let path = dir.join(format!("{run}.json"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, doc.to_string()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("ptbench: wrote {}", path.display());
    Ok(())
}

/// Four significant digits, without exponent notation.
fn fmt_value(v: f64) -> String {
    if !v.is_finite() || v == 0.0 {
        return format!("{v}");
    }
    let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

fn print_single(r: &Report, args: &Args) {
    println!(
        "== {} (seed {}, {} s, one worker, trace {}) ==",
        r.workload,
        args.seed,
        args.secs,
        u8::from(args.trace)
    );
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        println!("  {:<28} {:>14} {}", m.name, fmt_value(m.value), m.unit);
    }
    println!(
        "  {} wrong outcomes of {} negotiations",
        r.failed, r.attempted
    );
    for note in &r.notes {
        println!("  note: {note}");
    }
}

/// One row per metric, one column per workload.
fn print_table(title: &str, rows: &[(String, String)], reports: &[Report]) {
    println!("\n{title}");
    print!("  {:<28} {:<10}", "metric", "unit");
    for r in reports {
        print!(" {:>16}", r.workload);
    }
    println!();
    for (name, unit) in rows {
        print!("  {name:<28} {unit:<10}");
        for r in reports {
            let cell = r.find(name).map_or("-".to_string(), |m| fmt_value(m.value));
            print!(" {cell:>16}");
        }
        println!();
    }
}

fn print_tables(reports: &[Report], args: &Args) {
    // Rows in order of first appearance across workloads.
    let rows = |pick: &dyn Fn(&Report) -> Vec<&Metric>| {
        let mut rows: Vec<(String, String)> = Vec::new();
        for m in reports.iter().flat_map(pick) {
            if !rows.iter().any(|(n, _)| *n == m.name) {
                rows.push((m.name.clone(), m.unit.clone()));
            }
        }
        rows
    };
    let e2e = rows(&|r| r.end_to_end.iter().collect());
    let layers = rows(&|r| r.per_layer.iter().collect());
    print_table(
        &format!(
            "end-to-end metrics (seed {}, {} s per workload, closed loop, one worker)",
            args.seed, args.secs
        ),
        &e2e,
        reports,
    );
    print_table("per-layer metrics (traced run)", &layers, reports);
    for r in reports {
        for note in &r.notes {
            println!("  {}: {note}", r.workload);
        }
    }
}

/// Load the reports of a set of run files.
fn load_runs(files: &[PathBuf]) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("read {}: {e}", f.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", f.display()))?;
        let list = doc["workloads"]
            .as_array()
            .ok_or_else(|| format!("{} is not a ptbench run file", f.display()))?;
        for w in list {
            reports.push(
                Report::from_json(w).ok_or_else(|| format!("bad report in {}", f.display()))?,
            );
        }
    }
    Ok(reports)
}

/// `workload -> metric -> values`, in run-file order.
fn by_workload(reports: &[Report]) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for r in reports {
        let slot = out.entry(r.workload.clone()).or_default();
        for m in &r.end_to_end {
            slot.entry(m.name.clone()).or_default().push(m.value);
        }
    }
    out
}

/// Compare parent and change run files metric by metric, with the bounds
/// and directions of BENCHMARK.json in the working directory. `Ok(false)`
/// if a gated metric regressed; `error_share` may not grow at all.
fn compare_runs(parent: &[PathBuf], change: &[PathBuf]) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let spec: Value =
        serde_json::from_str(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let mut gates: Vec<(String, stats::Better, Option<f64>)> = spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            let better = match m["better"].as_str()? {
                "lower" => stats::Better::Lower,
                _ => stats::Better::Higher,
            };
            Some((m["name"].as_str()?.to_string(), better, m["bound"].as_f64()))
        })
        .collect();
    // Wrong outcomes are never allowed to grow.
    gates.push(("error_share".into(), stats::Better::Lower, Some(0.0)));
    let parent_reports = load_runs(parent)?;
    // Reported-only end-to-end metrics are compared without a verdict.
    for m in parent_reports.iter().flat_map(|r| &r.end_to_end) {
        if !gates.iter().any(|(n, _, _)| *n == m.name) {
            gates.push((m.name.clone(), stats::Better::Lower, None));
        }
    }
    let p = by_workload(&parent_reports);
    let c = by_workload(&load_runs(change)?);
    let mut ok = true;
    for (metric, better, bound) in &gates {
        match bound {
            Some(b) => println!("\n{metric} (bound {:.0}%)", b * 100.0),
            None => println!("\n{metric} (reported only, lower is better)"),
        }
        println!(
            "  {:<16} {:>30} {:>30} {:>8} {:>9} {:>6}  verdict",
            "workload",
            "parent median [q1, q3]",
            "change median [q1, q3]",
            "worse",
            "pairs won",
            "n"
        );
        for (workload, pm) in &p {
            let (Some(pv), Some(cv)) =
                (pm.get(metric), c.get(workload).and_then(|m| m.get(metric)))
            else {
                continue;
            };
            let cmp = stats::compare(pv, cv, *better, bound.unwrap_or(f64::INFINITY));
            let verdict = if bound.is_some() {
                cmp.verdict.label()
            } else {
                "-"
            };
            let q = |(q1, med, q3): (f64, f64, f64)| {
                format!("{} [{}, {}]", fmt_value(med), fmt_value(q1), fmt_value(q3))
            };
            println!(
                "  {workload:<16} {:>30} {:>30} {:>7.1}% {:>8.0}% {:>3}/{:<2}  {}",
                q(cmp.parent),
                q(cmp.change),
                cmp.worse_by * 100.0,
                cmp.won * 100.0,
                pv.len(),
                cv.len(),
                verdict
            );
            ok &= cmp.verdict != stats::Verdict::Regressed;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = args(&[
            "--workload",
            "deep_chain",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("deep_chain"));
        assert_eq!((a.seed, a.secs, a.trace), (7, 10.0, true));
    }

    #[test]
    fn parses_compare_sides() {
        let a = args(&["--compare", "a.json", "b.json", "--", "c.json"]).unwrap();
        let (p, c) = a.compare.unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(c, vec![PathBuf::from("c.json")]);
        assert!(args(&["--compare", "a.json"]).is_err());
        assert!(args(&["--compare", "--", "c.json"]).is_err());
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--secs", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
        assert_eq!(args(&["--smoke"]).unwrap().secs, 1.0);
    }

    #[test]
    fn formats_four_significant_digits() {
        assert_eq!(fmt_value(1234.5678), "1235");
        assert_eq!(fmt_value(12.345678), "12.35");
        assert_eq!(fmt_value(0.0012346), "0.001235");
        assert_eq!(fmt_value(0.0), "0");
    }

    /// A short traced run of the paper mix is correct, and its result
    /// lines carry exactly the metrics BENCHMARK.json lists, in order.
    #[test]
    fn gated_metrics_match_benchmark_json() {
        let spec: Value =
            serde_json::from_str(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let s = Settings {
            seed: 3,
            secs: 0.05,
            trace: true,
            // Next to the test binary, inside the build's target directory.
            out_dir: std::env::current_exe()
                .unwrap()
                .with_file_name("ptbench-test"),
        };
        let r = measure::run("paper_mix", &s).unwrap();
        assert!(r.correct, "{:?}", r.notes);
        for (metrics, key) in [(&r.end_to_end, "end_to_end"), (&r.per_layer, "per_layer")] {
            let want: Vec<(&str, &str)> = spec[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| (m["name"].as_str().unwrap(), m["unit"].as_str().unwrap()))
                .collect();
            let got: Vec<(&str, &str)> = metrics
                .iter()
                .filter(|m| m.gated)
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            assert_eq!(got, want, "{key}");
        }
    }
}

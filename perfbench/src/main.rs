//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! `--setup-only` (with the workload arguments) runs the workload's set-up
//! alone and prints its time from process start; an untraced run starts
//! such child processes to time cold set-ups.
//!
//! Workloads: `compile-matmul`, `compile-fused` (closed loops of cold
//! compiles) and `serve-decode` (an open loop against the compile
//! service). `--trace 0` prints the end-to-end metrics; `--trace 1` repeats
//! each compile stage by stage and prints the per-layer metrics. The last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; lines before it starting with `#` record the run
//! and its inputs. Any failed output check exits nonzero.

mod compile;
mod draws;
mod numerics;
mod report;
mod serve;
mod staged;

use std::process::ExitCode;
use std::time::Instant;

use report::{json_string, Outcome};

/// Set-ups whose median is `setup_s`: the run's own, then the others in
/// child processes started with `--setup-only`, so that each one is a cold
/// start timed from process start.
pub const SETUP_REPS: usize = 5;

pub const WORKLOADS: &[&str] = &["compile-matmul", "compile-fused", "serve-decode"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny request counts, for the self-test.
    pub toy: bool,
    /// Run the set-up only and print its time.
    pub setup_only: bool,
    pub process_start: Instant,
}

pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args(args: &[String], process_start: Instant) -> Result<Params, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut toy = false;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
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
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--toy" => toy = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Params {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        toy,
        setup_only,
        process_start,
    })
}

/// Runs the workload's set-up alone; its time from process start.
fn set_up_only(p: &Params) -> Result<f64, String> {
    match p.workload.as_str() {
        "serve-decode" => serve::set_up_only(p),
        w => compile::set_up_only(w, p),
    }
}

/// `setup_s`: the median of `own`, this run's set-up time, and the set-up
/// times of `SETUP_REPS - 1` child processes that run the set-up alone.
pub fn setup_s(p: &Params, own: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = vec![own];
    for _ in 1..SETUP_REPS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", &p.workload, "--seed", &p.seed.to_string()])
            .args(["--seconds", &p.seconds.to_string(), "--trace", "0"])
            .args(p.toy.then_some("--toy"))
            .arg("--setup-only")
            .output()
            .map_err(|e| format!("set-up child: spawn failed: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let time = stdout
            .lines()
            .find_map(|line| line.strip_prefix("# setup_s "))
            .and_then(|v| v.parse::<f64>().ok());
        match time {
            Some(t) if output.status.success() => times.push(t),
            _ => {
                return Err(format!(
                    "set-up child exited with {}\n{}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ))
            }
        }
    }
    Ok(report::median(&times))
}

/// Every `HEXCUTE_*` variable that is set. Refuses fault specs, execution
/// kill-switches and search truncation, so a number never comes from a
/// reference or degraded path by accident.
fn hexcute_env() -> Result<Vec<(String, String)>, String> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("HEXCUTE_"))
        .collect();
    vars.sort();
    for (k, v) in &vars {
        if k == "HEXCUTE_FAULTS"
            || k.starts_with("HEXCUTE_DISABLE_")
            || k == "HEXCUTE_SYNTH_BUDGET"
            || k == "HEXCUTE_SYNTH_BEAM"
        {
            return Err(format!("refusing to run with {k}={v} set"));
        }
    }
    Ok(vars)
}

fn run(p: &Params, env: &[(String, String)]) -> Result<Outcome, String> {
    let env_json = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "# run {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_parallelism\": {}, \"worker_count\": {}, \"hexcute_env\": {{{env_json}}}}}",
        json_string(&p.workload),
        p.seed,
        p.seconds,
        u8::from(p.trace),
        host_parallelism(),
        hexcute_parallel::worker_count(),
    );
    match p.workload.as_str() {
        "serve-decode" => serve::run(p),
        w => compile::run(w, p),
    }
}

/// Runs every workload at toy scale in child processes, traced and
/// untraced, and checks each result line: every metric present with its
/// unit, every check passed, nothing failed.
fn self_test() -> Result<(), String> {
    check_benchmark_json()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let label = format!("{workload} trace={}", u8::from(trace));
            let output = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", if trace { "1" } else { "0" }, "--toy"])
                .output()
                .map_err(|e| format!("{label}: spawn failed: {e}"))?;
            if !output.status.success() {
                return Err(format!(
                    "{label}: exited with {}\n{}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            check_result_line(last, trace).map_err(|e| format!("{label}: {e}\n{last}"))?;
            println!("self-test: {label} ok");
        }
    }
    Ok(())
}

/// When run from the repository root, checks that `BENCHMARK.json` lists
/// the workloads and metrics this binary prints, with the same units.
fn check_benchmark_json() -> Result<(), String> {
    use hexcute_core::json::JsonValue;
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let spec = JsonValue::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str, with_unit: bool| -> Vec<String> {
        spec.get(key)
            .and_then(JsonValue::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(JsonValue::as_str).unwrap_or("");
                match m.get("unit").and_then(JsonValue::as_str) {
                    Some(unit) if with_unit => format!("{name} [{unit}]"),
                    _ => name.to_string(),
                }
            })
            .collect()
    };
    let ours = |set: &[(&str, &str)]| -> Vec<String> {
        set.iter().map(|(n, u)| format!("{n} [{u}]")).collect()
    };
    if names("workloads", false) != WORKLOADS {
        return Err("BENCHMARK.json workloads differ from the binary's".into());
    }
    if names("end_to_end", true) != ours(report::END_TO_END)
        || names("per_layer", true) != ours(report::PER_LAYER)
    {
        return Err("BENCHMARK.json metrics differ from the binary's".into());
    }
    Ok(())
}

fn check_result_line(line: &str, trace: bool) -> Result<(), String> {
    use hexcute_core::json::JsonValue;
    let value = JsonValue::parse(line).map_err(|e| e.to_string())?;
    let JsonValue::Obj(top) = &value else {
        return Err("result is not an object".into());
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if value.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        return Err("correct is not true".into());
    }
    if value.get("failed").and_then(JsonValue::as_usize) != Some(0) {
        return Err("failed is not 0".into());
    }
    if value
        .get("attempted")
        .and_then(JsonValue::as_usize)
        .unwrap_or(0)
        < 1
    {
        return Err("attempted is below 1".into());
    }
    let Some(JsonValue::Obj(metrics)) = value.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    let expected = report::metric_set(trace);
    if metrics.len() != expected.len() {
        return Err(format!(
            "{} metrics, expected {}",
            metrics.len(),
            expected.len()
        ));
    }
    for (name, unit) in expected {
        let metric = metrics
            .get(*name)
            .ok_or_else(|| format!("metric {name} missing"))?;
        if metric.get("unit").and_then(JsonValue::as_str) != Some(*unit) {
            return Err(format!("metric {name} lacks unit {unit}"));
        }
        let v = metric
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("metric {name} has no value"))?;
        if !trace && v <= 0.0 {
            return Err(format!("end-to-end metric {name} is {v}, not positive"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--self-test"] {
        return match self_test() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: self-test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let params = match parse_args(&args, process_start) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = match hexcute_env() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if params.setup_only {
        return match set_up_only(&params) {
            Ok(secs) => {
                println!("# setup_s {secs}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&params, &env) {
        Ok(outcome) => {
            println!("{}", outcome.to_json_line(params.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            ExitCode::FAILURE
        }
    }
}

//! `bench_e2e`: the end-to-end + per-layer benchmark every later performance
//! and simplicity claim is measured with. See README.md beside this package.

mod calib;
mod compare;
mod harness;
mod manifest;
mod spans;
mod stats;
mod verify;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Metrics, Recorder};
use manifest::{RUN_SECONDS, WORKLOADS};

/// Environment variables `ExecutionConfig::default()` reads. Configuration is
/// pinned by the harness, never ambient.
const AMBIENT: [&str; 6] = [
    "CI_EXEC_MODE",
    "CI_FAULT_MODE",
    "CI_TRACE",
    "CI_PAGE_SOURCE",
    "CI_TIERS",
    "CI_RATES_PATH",
];
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Iterations every run takes, however short its window.
const MIN_ITERATIONS: u32 = 3;

const USAGE: &str = "usage:
  bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--golden]
  bench_e2e --all [--seed N] [--seconds S] [--smoke]     every workload, untraced then traced
  bench_e2e --compare A B                                judge result file B against A
  bench_e2e --manifest                                   print BENCHMARK.json";

/// The first ambient `CI_*` variable that is set, if any.
fn ambient_violation(is_set: impl Fn(&str) -> bool) -> Option<&'static str> {
    AMBIENT.into_iter().find(|v| is_set(v))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    golden: bool,
    all: bool,
    manifest: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        golden: false,
        all: false,
        manifest: false,
        compare: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                a.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => a.trace = value(&mut it, flag)? != "0",
            "--smoke" => a.smoke = true,
            "--golden" => a.golden = true,
            "--all" => a.all = true,
            "--manifest" => a.manifest = true,
            "--compare" => a.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.smoke {
        a.seconds = 1.0;
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|(n, _)| n == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(a)
}

/// Prints the result: one `workload metric value unit` line per metric, then
/// the JSON object the driver reads as the last line.
fn emit(workload: &str, metrics: &Metrics, attempted: u64, failed: u64) -> bool {
    let finite = metrics.iter().all(|m| m.1.is_finite());
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            let unit = manifest::unit_of(name).expect("metric is in the manifest");
            let v = if v.is_finite() { *v } else { 0.0 };
            println!("{workload} {name} {v} {unit}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = failed == 0 && finite;
    println!("{workload} ops_attempted {attempted} count");
    println!("{workload} ops_failed {failed} count");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    correct
}

/// Runs one workload in this process.
fn run(args: &Args, workload: &'static str) -> Result<bool, String> {
    let t0 = Instant::now();
    let mut rec = Recorder::new(workload, args.seed, t0);
    let err = |e: ci_core::types::CiError| e.to_string();

    // Set-up, several times over (the driver gates on its median): data
    // generation, registration, CIPF persist, pool spawn, warm-up iteration.
    // A traced run sets up once, with spans on around the layer calls.
    let setups = if args.trace || args.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..setups {
        drop(w.take());
        let start = rec.now_ns();
        rec.calib.tick(start);
        rec.tracing = args.trace;
        let mut built = workloads::setup(workload, args.seed, &mut rec).map_err(err)?;
        // A traced run replays the warm-up too, so the replay's cache
        // simulators enter the first timed iteration (the one counts are
        // taken on) in the state the warehouse's own is in; the warm-up's
        // spans, taken on cold caches, are dropped.
        let keep = rec.spans.spans.len();
        built.iteration(&mut rec);
        rec.spans.spans.truncate(keep);
        rec.tracing = false;
        let end = rec.now_ns();
        rec.calib.tick(end);
        setup_s.push(rec.norm_ms(start, end - start) / 1e3);
        w = Some(built);
    }
    let mut w = w.expect("at least one set-up");

    // The timed window: whole iterations of the fixed op list until the time
    // is up. A traced run records spans on every third iteration and runs the
    // others plain, which is what `obs.bench_trace_overhead` compares.
    rec.timing = true;
    let window = Instant::now();
    while rec.iter < MIN_ITERATIONS || window.elapsed().as_secs_f64() < args.seconds {
        rec.tracing = args.trace && rec.iter % 3 == 0;
        w.iteration(&mut rec);
        rec.end_iteration();
    }
    rec.timing = false;
    rec.tracing = false;
    w.verify(&mut rec);

    let metrics = if args.trace {
        rec.tracing = true;
        if let Err(e) = workloads::storage_probe(&mut rec, w.catalog(), args.seed) {
            rec.fail(format!("storage probe: {e}"));
        }
        rec.tracing = false;
        let out = PathBuf::from(".bench_out");
        let path = out.join(format!("spans-{workload}-seed{}.jsonl", args.seed));
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, rec.spans.to_jsonl(workload, &rec.kinds)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "# {} spans written to {}",
            rec.spans.spans.len(),
            path.display()
        );
        println!("# self time per span name (raw ms): count total self");
        for (name, (n, total, own)) in spans::self_time_table(&rec.spans.spans) {
            println!(
                "# {name:<24} {n:>7} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        harness::per_layer(&rec)
    } else {
        harness::end_to_end(&rec, stats::median(&setup_s), w.stored_bytes())
    };

    println!(
        "# {workload} seed {} trace {}: {} iterations, {} timed ops in {:.1} s, raw iteration \
         median {:.3} ms, machine-speed factor p10/p50/p90 {:.3?}, {} cores{}",
        args.seed,
        u8::from(args.trace),
        rec.iter,
        rec.ops.len(),
        t0.elapsed().as_secs_f64(),
        harness::raw_iter_ms_p50(&rec),
        rec.calib.factor_range(),
        std::thread::available_parallelism().map_or(0, usize::from),
        if args.smoke {
            " — SMOKE RUN, metrics not comparable"
        } else {
            ""
        }
    );
    if args.golden {
        print!(
            "{}",
            rec.digest
                .to_golden()
                .lines()
                .map(|l| format!("golden {l}\n"))
                .collect::<String>()
        );
    }
    Ok(emit(workload, &metrics, rec.attempted, rec.failed))
}

/// Runs every workload, each in a process of its own (so set-up time and
/// peak memory are per workload), untraced then traced.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload, "--trace", trace]);
            cmd.args(["--seed", &args.seed.to_string()]);
            cmd.args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // `status` waits for the child to end.
            ok &= cmd.status().map_err(|e| e.to_string())?.success();
        }
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.manifest {
        print!("{}", manifest::benchmark_json());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return Ok(compare::compare(&read(a)?, &read(b)?) == 0);
    }
    if let Some(var) = ambient_violation(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set: the benchmark pins its configuration, unset it"
        ));
    }
    if args.all {
        return run_all(&args);
    }
    let Some(name) = &args.workload else {
        return Err(USAGE.to_owned());
    };
    let workload = WORKLOADS.iter().find(|w| w.0 == name).expect("checked").0;
    // The catalog's page store lives under the temp dir; keep it (and so
    // every byte the run writes) inside the checkout the run started in.
    let scratch = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    std::env::set_var("TMPDIR", &scratch);
    // `run` has dropped the workload, and with it the page store, on return.
    let out = run(&args, workload);
    let _ = std::fs::remove_dir_all(&scratch);
    // Gone too unless another run is using it.
    let _ = std::fs::remove_dir(scratch.parent().expect("joined above"));
    out
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_every_ambient_ci_variable() {
        assert_eq!(ambient_violation(|_| false), None);
        for var in AMBIENT {
            assert_eq!(ambient_violation(|v| v == var), Some(var));
        }
        assert_eq!(ambient_violation(|v| v == "CI_UNRELATED"), None);
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let argv: Vec<String> = "--workload cab_sim --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.as_deref(), Some("cab_sim"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
        let smoke = parse_args(&["--all".into(), "--smoke".into()]).unwrap();
        assert_eq!((smoke.all, smoke.seconds), (true, 1.0));
    }
}

//! The sleepwatch repo benchmark.
//!
//! `perfbench --workload <batch-35d|stream-35d|serve-mix|all> --seed <n>
//! --seconds <s> --trace <0|1> --work <dir>` generates the workload's
//! inputs from the seed, then measures it in a series of child processes
//! (`perfbench pass …`), each of which sets up cold — no FFT plan cache,
//! LRU or obs registry survives from an earlier pass — times one pass
//! and checks its output. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with every end-to-end
//! metric (`--trace 0`, obs off) or every per-layer metric (`--trace 1`,
//! one traced pass with obs on beside untraced ones). The exit code is
//! non-zero when any correctness check or output digest fails.
//!
//! See `perfbench/README.md` for the workloads, the layer → metric map
//! and how to run one workload with a given seed.

mod batch;
mod load;
mod serve;
mod stats;
mod stream;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use sleepwatch_simnet::WorldSource;

use crate::stats::{median, relative_spread, Tally};
use crate::sys::{parse_report, Digest};
use crate::trace::Tracer;
use crate::workload::{end_to_end, PassOut, Values, PER_LAYER};

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["batch-35d", "stream-35d", "serve-mix"];

/// Passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// No new pass starts this long after a run began, keeping every run
/// well inside its time limit.
const RUN_DEADLINE_S: f64 = 120.0;

/// A pass still running this long after the run began is killed and
/// counted as failed, so a hung program ends the run instead of holding it.
const KILL_AFTER_S: f64 = 170.0;

/// Output digests recorded per workload and seed (`workload\tseed\thex`).
const RECORDED_DIGESTS: &str = include_str!("../digests.tsv");

/// Parsed command line.
#[derive(Clone)]
struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    input: Option<PathBuf>,
    seeds: (u64, u64),
}

fn parse_args() -> Result<Args, String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mode = match raw.first().map(String::as_str) {
        Some("pass") | Some("digests") | Some("describe") => raw.remove(0),
        _ => "run".to_string(),
    };
    let mut a = Args {
        mode,
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(".bench_build/perfbench-work"),
        input: None,
        seeds: (0, 0),
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => a.trace = value()? == "1",
            "--work" => a.work = PathBuf::from(value()?),
            "--input" => a.input = Some(PathBuf::from(value()?)),
            "--seeds" => {
                let v = value()?;
                let (lo, hi) = v.split_once("..").ok_or("--seeds takes LO..HI")?;
                a.seeds = (
                    lo.parse().map_err(|_| "--seeds takes integers")?,
                    hi.parse().map_err(|_| "--seeds takes integers")?,
                );
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known =
        WORKLOADS.contains(&a.workload.as_str()) || (a.mode == "run" && a.workload == "all");
    if matches!(a.mode.as_str(), "run" | "pass") && !known {
        return Err(format!("unknown workload {:?} (one of {WORKLOADS:?} or all)", a.workload));
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ok = match args.mode.as_str() {
        "pass" => child(&args),
        "digests" => record_digests(args.seeds),
        "describe" => {
            print!("{}", workload::benchmark_json());
            true
        }
        _ if args.workload == "all" => {
            // Every workload runs even when an earlier one failed.
            let ok: Vec<bool> = WORKLOADS
                .iter()
                .map(|w| {
                    eprintln!("perfbench: workload {w}");
                    run(&Args { workload: w.to_string(), ..args.clone() })
                })
                .collect();
            ok.iter().all(|&ok| ok)
        }
        _ => run(&args),
    };
    std::process::exit(if ok { 0 } else { 1 });
}

// ---------------------------------------------------------------------------
// One measured pass (child process)
// ---------------------------------------------------------------------------

/// Runs one pass in this (fresh) process and prints its report.
fn child(args: &Args) -> bool {
    sleepwatch_obs::set_global_enabled(args.trace);
    let mut tracer = Tracer::new();
    let tr = args.trace.then_some(&mut tracer);
    let input = args.input.as_deref();
    let work = &args.work;
    let out = match args.workload.as_str() {
        "batch-35d" => traced_suite(args, tr, |tr| batch::pass(args.seed, batch::BLOCKS, tr)),
        "stream-35d" => {
            let feed =
                stream::read_feed(input.expect("stream pass needs --input")).expect("read feed");
            traced_suite(args, tr, |tr| stream::pass(args.seed, stream::BLOCKS, &feed, work, tr))
        }
        _ => {
            let bytes =
                std::fs::read(input.expect("serve pass needs --input")).expect("read dataset");
            traced_suite(args, tr, |tr| serve::pass(args.seed, &bytes, true, tr))
        }
    };
    if args.trace {
        let dir = work.parent().unwrap_or(work).join("traces");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: could not write spans to {}: {e}", path.display());
        }
    }
    out.report().emit();
    true
}

/// Runs the workload's own pass; in a traced pass, then measures every
/// other layer stack at its small size so each run reports every
/// per-layer metric, and the FFT kernel rows.
fn traced_suite(
    args: &Args,
    tracer: Option<&mut Tracer>,
    main_pass: impl FnOnce(Option<&mut Tracer>) -> PassOut,
) -> PassOut {
    let Some(tr) = tracer else {
        return main_pass(None);
    };
    let mut out = tr.span("pass.main", |tr| main_pass(Some(tr)));
    let mut extra = Values::default();
    let mut failures = Vec::new();
    tr.span("pass.layers", |tr| {
        let mut absorb = |o: PassOut| {
            failures.extend(o.failures);
            extra.merge_missing(o.layers);
        };
        if args.workload != "batch-35d" {
            absorb(batch::pass(args.seed, batch::MINI_BLOCKS, Some(tr)));
        }
        if args.workload != "stream-35d" {
            let source = WorldSource::new(stream::world(args.seed, stream::MINI_BLOCKS));
            let feed = stream::generate(&source);
            absorb(stream::pass(args.seed, stream::MINI_BLOCKS, &feed, &args.work, Some(tr)));
        }
        if args.workload != "serve-mix" {
            // The serve layer at full size (50k rows), under a short load.
            let bytes = serve::generate(args.seed);
            absorb(serve::pass(args.seed, &bytes, false, Some(tr)));
        }
        tr.span("spectral.kernel_rows", |_| batch::kernel_rows(&mut extra));
    });
    for f in failures {
        out.fail(f);
    }
    out.layers.merge_missing(extra);
    out.layers.set("trace.spans", tr.spans().len() as f64);
    out
}

// ---------------------------------------------------------------------------
// The run (parent process)
// ---------------------------------------------------------------------------

/// One finished child pass, parsed.
struct Pass {
    values: BTreeMap<String, f64>,
    digest: String,
    ok: bool,
}

impl Pass {
    fn get(&self, k: &str) -> Option<f64> {
        self.values.get(k).copied()
    }
}

fn spawn_pass(args: &Args, input: Option<&Path>, traced: bool, started: Instant) -> Pass {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.arg("pass")
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--work")
        .arg(&args.work);
    if let Some(p) = input {
        cmd.arg("--input").arg(p);
    }
    let mut child =
        cmd.stdout(Stdio::piped()).stderr(Stdio::inherit()).spawn().expect("spawn measured pass");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll measured pass") {
            break status;
        }
        if started.elapsed().as_secs_f64() > KILL_AFTER_S {
            eprintln!("perfbench: pass still running after {KILL_AFTER_S} s; killing it");
            let _ = child.kill();
            break child.wait().expect("reap killed pass");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let text = reader.join().expect("pass output reader");
    let mut values = BTreeMap::new();
    let mut digest = String::new();
    for (k, v) in parse_report(&text) {
        if k == "digest" {
            digest = v;
        } else if let Ok(x) = v.parse::<f64>() {
            values.insert(k, x);
        }
    }
    let ok = status.success() && values.get("check_failures") == Some(&0.0);
    if !status.success() {
        eprintln!("perfbench: pass exited with {status}");
    }
    Pass { values, digest, ok }
}

/// Generates the workload's inputs in `dir`; returns the input file and
/// the digest the passes must reproduce, when the run can derive it.
fn generate(args: &Args, dir: &Path) -> (Option<PathBuf>, Option<String>) {
    match args.workload.as_str() {
        "stream-35d" => {
            let source = WorldSource::new(stream::world(args.seed, stream::BLOCKS));
            let feed = stream::generate(&source);
            let path = dir.join("feed.bin");
            stream::write_feed(&path, &feed).expect("write feed");
            // The verdicts must equal the batch pipeline's on the same world.
            let (_, bytes) = batch::reference(&source, &stream::config(&source));
            (Some(path), Some(Digest::of(&bytes).hex()))
        }
        "serve-mix" => {
            let bytes = serve::generate(args.seed);
            let path = dir.join("dataset.bin");
            std::fs::write(&path, &bytes).expect("write dataset");
            (Some(path), None)
        }
        _ => (None, None),
    }
}

/// The digest recorded for this workload and seed, if any.
fn recorded_digest(workload: &str, seed: u64) -> Option<&'static str> {
    RECORDED_DIGESTS.lines().find_map(|l| {
        let mut f = l.split('\t');
        (f.next() == Some(workload) && f.next() == Some(seed.to_string().as_str()))
            .then(|| f.next())
            .flatten()
    })
}

fn run(args: &Args) -> bool {
    sleepwatch_obs::set_global_enabled(false);
    let started = Instant::now();
    let dir = args.work.join(format!("{}-seed{}-{}", args.workload, args.seed, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create work directory");
    let pass_args = Args { work: dir.clone(), ..args.clone() };
    let (input, expect) = generate(args, &dir);

    let measure_start = Instant::now();
    let traced = args.trace.then(|| spawn_pass(&pass_args, input.as_deref(), true, started));
    let mut passes = Vec::new();
    let min = if args.trace { 2 } else { MIN_PASSES };
    while passes.len() < min
        || (measure_start.elapsed().as_secs_f64() < args.seconds
            && started.elapsed().as_secs_f64() < RUN_DEADLINE_S)
    {
        passes.push(spawn_pass(&pass_args, input.as_deref(), false, started));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut correct = true;
    let mut tally = Tally::default();
    let mut digests: Vec<&str> = Vec::new();
    for p in passes.iter().chain(traced.as_ref()) {
        correct &= p.ok;
        tally.absorb(Tally {
            attempted: p.get("attempted").unwrap_or(0.0) as u64,
            failed: p.get("failed").unwrap_or(0.0) as u64,
        });
        digests.push(&p.digest);
    }
    let digest = digests.first().copied().unwrap_or("-").to_string();
    if digests.iter().any(|d| *d != digest) {
        eprintln!("perfbench: passes disagree on the output digest: {digests:?}");
        correct = false;
    }
    if let Some(want) = expect.as_deref() {
        if want != digest {
            eprintln!("perfbench: output digest {digest} differs from the reference {want}");
            correct = false;
        }
    }
    match recorded_digest(&args.workload, args.seed) {
        Some(want) if want != digest => {
            eprintln!("perfbench: output digest {digest} differs from the recorded {want}");
            correct = false;
        }
        Some(_) => eprintln!("perfbench: output digest {digest} matches the recorded digest"),
        None => eprintln!("perfbench: output digest {digest} (no digest recorded for this seed)"),
    }
    correct &= tally.failed == 0 && tally.attempted > 0;

    let col = |k: &str| -> Vec<f64> { passes.iter().filter_map(|p| p.get(k)).collect() };
    let med = |k: &str| median(&col(k));
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { end_to_end(&args.workload) };
    for &(name, unit) in wanted {
        let v = match (traced.as_ref(), name) {
            (Some(tp), "trace.overhead") => {
                tp.get("e2e.cpu_s").zip(med("e2e.cpu_s")).map(|(c, base)| c / base - 1.0)
            }
            (Some(tp), _) => tp.get(&format!("layer.{name}")),
            (None, _) => med(&format!("e2e.{name}")),
        };
        match v {
            Some(v) => metrics.push((name, v, unit)),
            None => {
                eprintln!("perfbench: no pass reported {name}");
                correct = false;
            }
        }
    }
    for (name, unit) in end_to_end(&args.workload) {
        if let Some(s) = relative_spread(&col(&format!("e2e.{name}"))) {
            eprintln!("perfbench: pass-to-pass spread of {name} ({unit}): {s:.3}");
        }
    }
    for (name, v, unit) in &metrics {
        if !v.is_finite() || (!args.trace && *v <= 0.0) {
            eprintln!("perfbench: {name} = {v} is not a measurement");
            correct = false;
        }
        eprintln!("perfbench: {:<32} {v:>16.6} {unit}", name);
    }
    eprintln!(
        "perfbench: {} of {} operations failed ({:.4}); {} passes{}, {:.1}s",
        tally.failed,
        tally.attempted,
        tally.failed_fraction(),
        passes.len(),
        if args.trace { " + 1 traced" } else { "" },
        started.elapsed().as_secs_f64()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*v))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    correct
}

/// A finite JSON number with every digit Rust prints.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Prints `workload\tseed\tdigest` for every workload and seed in the
/// range — the lines `digests.tsv` records.
fn record_digests((lo, hi): (u64, u64)) -> bool {
    sleepwatch_obs::set_global_enabled(false);
    for seed in lo..=hi {
        let source = WorldSource::new(batch::world(seed, batch::BLOCKS));
        let (_, bytes) = batch::reference(&source, &batch::config(&source));
        println!("batch-35d\t{seed}\t{}", Digest::of(&bytes).hex());
        let source = WorldSource::new(stream::world(seed, stream::BLOCKS));
        let (_, bytes) = batch::reference(&source, &stream::config(&source));
        println!("stream-35d\t{seed}\t{}", Digest::of(&bytes).hex());
        let bytes = serve::generate(seed);
        println!("serve-mix\t{seed}\t{}", serve::expected_digest(seed, &bytes));
    }
    true
}

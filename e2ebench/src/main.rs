//! The NetAlytics end-to-end benchmark.
//!
//! ```text
//! netalytics-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                      [--quick] [--repeat <n>] [--scratch <dir>]
//! ```
//!
//! One run drives one workload, checks its outputs against a reference
//! computed here from the generated input, prints every metric by name
//! and unit, and ends with one JSON object on the last line of standard
//! output. The exit code is non-zero only for a correctness failure, a
//! set-up failure or an exceeded deadline — never for a performance
//! number. See `README.md` beside this crate for the metric definitions.

mod calib;
mod gen;
mod history;
mod http;
mod json;
mod lane;
mod metrics;
mod probes;
mod procfs;
mod served;
mod spans;
mod stats;
mod sut;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use metrics::{MetricDef, RunOutput, END_TO_END, GATED, PER_LAYER, WORKLOADS};

/// A run that has not finished by then is abandoned with a non-zero
/// exit, well inside the driver's 180 s limit.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// Per-metric bound of `BENCHMARK.json`, for the A/A table.
const BOUNDS: [(&str, f64); 3] = [
    ("setup_s", 0.25),
    ("goodput_per_s", 0.25),
    ("result_latency_p50_ms", 0.25),
];

/// What one run was asked to do, and where it may write.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where traces go; the per-process directory lives under it.
    scratch_base: PathBuf,
    /// Unique to this process; removed on exit.
    scratch: PathBuf,
    /// Seconds from process start to the workload's own set-up — the
    /// part of `setup_s` every workload pays alike.
    pub startup_s: f64,
    dirs: AtomicU32,
}

impl Ctx {
    /// Measured stretches after the one discarded warm-up stretch.
    pub fn stretches(&self) -> usize {
        match (self.quick, self.trace) {
            (true, _) => 2,
            // Half with the recorder off, half with it on.
            (false, true) => 4,
            (false, false) => 5,
        }
    }

    /// Measured stretches of a lane's stepped drive. A stretch is fixed
    /// work that takes this host about a second, so `--seconds` of them
    /// fill the run; a traced run keeps four, recorder off and on in turn.
    pub fn lane_stretches(&self) -> usize {
        if self.quick || self.trace {
            self.stretches()
        } else {
            (self.seconds.round() as usize).max(3)
        }
    }

    /// How many times a workload sets up when it does so `full` times
    /// at full size; `setup_s` is the median of them.
    pub fn setup_repeats(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }

    /// Length of one paced stretch of a traced lane run: six of them
    /// fill three quarters of `--seconds`.
    pub fn paced_stretch_s(&self) -> f64 {
        if self.quick {
            0.25
        } else {
            self.seconds / 8.0
        }
    }

    /// Length of one closed-loop stretch: six of them fill `--seconds`.
    pub fn closed_stretch_s(&self) -> f64 {
        if self.quick {
            0.3
        } else {
            self.seconds / 6.0
        }
    }

    /// Writes a per-stretch note to standard error (standard output's
    /// last line stays the result).
    pub fn note(&self, what: &str) {
        eprintln!("[{}] {what}", self.workload);
    }

    /// A new empty directory under this process's scratch directory.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn fresh_dir(&self, tag: &str) -> Result<PathBuf, String> {
        let n = self.dirs.fetch_add(1, Ordering::Relaxed);
        let dir = self.scratch.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Writes `trace-<workload>.json` beside the per-process directory.
    ///
    /// # Errors
    ///
    /// File write failures.
    pub fn write_trace(&self, spans: &[spans::Span]) -> Result<(), String> {
        let path = self
            .scratch_base
            .join(format!("trace-{}.json", self.workload));
        std::fs::write(&path, spans::render_json(&self.workload, spans))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
    scratch: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: netalytics-benchmark --workload <{}> --seed <n> --seconds <1..60> --trace <0|1> \
         [--quick] [--repeat <n>] [--scratch <dir>]\n(diagnostic, not in BENCHMARK.json: {})",
        WORKLOADS.join("|"),
        WORKLOADS[GATED..].join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        quick: false,
        repeat: 0,
        scratch: PathBuf::from(".bench_scratch"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?,
            "--trace" => a.trace = value()? == "1",
            "--repeat" => a.repeat = value()?.parse().map_err(|_| "--repeat: not a number")?,
            "--scratch" => a.scratch = PathBuf::from(value()?),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", a.workload, usage()));
    }
    if !(1.0..=60.0).contains(&a.seconds) {
        return Err("--seconds must be within 1..60".into());
    }
    Ok(a)
}

/// Runs one workload.
fn run_workload(ctx: &Ctx) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    match ctx.workload.as_str() {
        "lane_http_topk" => lane::run(lane::Kind::HttpTopk, ctx, &mut out)?,
        "lane_conn_diff" => lane::run(lane::Kind::ConnDiff, ctx, &mut out)?,
        "history_mixed" => history::run(ctx, &mut out)?,
        "served_queries" => served::run(ctx, &mut out)?,
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(out)
}

/// Prints every metric the run produced, by name and unit. An untraced
/// run of a calibrated workload also prints [`WALL_GOODPUT`], which the
/// result line leaves out.
fn print_table(out: &RunOutput) {
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(v) = out.values.get(d.name) {
            println!("{:<36} {:>16.4} {}", d.name, v, d.unit);
        }
    }
    println!(
        "attempted {}  failed {}  correct {}",
        out.attempted,
        out.failed,
        out.correct()
    );
    for why in &out.wrong {
        println!("WRONG: {why}");
    }
}

/// Goodput per wall-clock second: printed by every untraced run of a
/// calibrated workload (the lanes, `history_mixed`) beside the calibrated
/// `goodput_per_s`, and given its own row in the A/A table, so the
/// calibration can be judged on the same runs.
const WALL_GOODPUT: &str = "bench.goodput_wall_per_s";

/// One row of the A/A table; `bound` is `None` for a metric that is
/// reported and not gated.
fn aa_row(name: &str, unit: &str, values: &[f64], bound: Option<f64>) -> Result<String, String> {
    let (q1, q2, q3) = stats::quartiles(values).ok_or("need at least two runs")?;
    let share = stats::iqr_over_median(values).unwrap_or(f64::INFINITY);
    let (bound, inside) = match bound {
        Some(b) => (
            format!("{:.0} %", b * 100.0),
            if share <= b / 3.0 { "yes" } else { "NO" },
        ),
        None => ("-".to_string(), "-"),
    };
    Ok(format!(
        "| {name} | {unit} | {q1:.4} | {q2:.4} | {q3:.4} | {:.2} % | {bound} | {inside} |",
        share * 100.0
    ))
}

/// A/A mode: runs the same command `n` times as child processes (seed
/// advancing by one each time) and prints, per end-to-end metric, the
/// quartiles, the spread (IQR ÷ median), the bound, and whether the
/// spread is inside a third of the bound — the one test every metric is
/// held to.
fn repeat(args: &Args, n: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut wall_goodput = Vec::new();
    let mut failed = 0u64;
    for i in 0..n {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", &args.workload])
            .args(["--seed", &(args.seed + i as u64).to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .arg("--scratch")
            .arg(&args.scratch)
            .stderr(std::process::Stdio::inherit());
        if args.quick {
            cmd.arg("--quick");
        }
        let output = cmd.output().map_err(|e| format!("spawn run {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let doc = json::Json::parse(last).ok_or_else(|| {
            format!(
                "run {i} printed no result (exit {:?})",
                output.status.code()
            )
        })?;
        if doc.get("correct") != Some(&json::Json::Bool(true)) {
            return Err(format!("run {i} was not correct: {last}"));
        }
        failed += doc.get("failed").and_then(json::Json::as_u64).unwrap_or(0);
        for (k, d) in END_TO_END.iter().enumerate() {
            let v = doc
                .get("metrics")
                .and_then(|m| m.get(d.name)?.get("value")?.as_f64())
                .ok_or_else(|| format!("run {i}: no {}", d.name))?;
            series[k].push(v);
        }
        wall_goodput.extend(stdout.lines().find_map(|l| {
            let mut words = l.split_whitespace();
            (words.next() == Some(WALL_GOODPUT)).then(|| words.next()?.parse::<f64>().ok())?
        }));
        eprintln!(
            "run {}/{n} seed {}: {}",
            i + 1,
            args.seed + i as u64,
            END_TO_END
                .iter()
                .enumerate()
                .map(|(k, d)| format!("{} {:.4}", d.name, series[k][i]))
                .collect::<Vec<_>>()
                .join("  ")
        );
    }
    println!(
        "A/A {} x{n}, seeds {}..{}, --seconds {}: failed operations {failed}",
        args.workload,
        args.seed,
        args.seed + n as u64 - 1,
        args.seconds
    );
    println!(
        "| metric | unit | q1 | median | q3 | IQR/median | bound | inside a third |\n\
         |---|---|---|---|---|---|---|---|"
    );
    for (k, d) in END_TO_END.iter().enumerate() {
        let bound = BOUNDS.iter().find(|b| b.0 == d.name).map(|b| b.1);
        println!("{}", aa_row(d.name, d.unit, &series[k], bound)?);
    }
    if wall_goodput.len() == n {
        println!("{}", aa_row(WALL_GOODPUT, "1/s", &wall_goodput, None)?);
    }
    // The table informs; it never fails the command.
    Ok(())
}

fn main() {
    let started = Instant::now();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if args.repeat > 0 {
        match repeat(&args, args.repeat) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    let unique = format!(
        "run-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    );
    let mut ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        scratch: args.scratch.join(unique),
        scratch_base: args.scratch,
        startup_s: 0.0,
        dirs: AtomicU32::new(0),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("{}: {e}", ctx.scratch.display());
        std::process::exit(2);
    }
    // Nothing can hang: a watchdog ends the process at the deadline.
    let doomed = ctx.scratch.clone();
    std::thread::spawn(move || {
        std::thread::sleep(RUN_DEADLINE);
        eprintln!("deadline of {RUN_DEADLINE:?} exceeded; abandoning the run");
        let _ = std::fs::remove_dir_all(&doomed);
        std::process::exit(3);
    });

    ctx.startup_s = started.elapsed().as_secs_f64();
    let result = run_workload(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    match result {
        Ok(out) => {
            let defs: &[MetricDef] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
            print_table(&out);
            println!("{}", out.result_line(defs));
            std::process::exit(if out.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("{}: {e}", ctx.workload);
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod smoke {
    //! A `--quick` run of each workload: tiny sizes, correctness only.

    use super::*;

    /// The span recorder is process-wide; tests that turn it on take
    /// turns.
    pub static RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn quick(workload: &str, trace: bool) -> RunOutput {
        let base =
            std::env::temp_dir().join(format!("netalytics-bench-test-{}", std::process::id()));
        let ctx = Ctx {
            workload: workload.into(),
            seed: 7,
            seconds: 1.0,
            trace,
            quick: true,
            scratch: base.join(format!("{workload}-{trace}")),
            scratch_base: base.clone(),
            startup_s: 0.0,
            dirs: AtomicU32::new(0),
        };
        std::fs::create_dir_all(&ctx.scratch).unwrap();
        let out = run_workload(&ctx);
        let trace_file = base.join(format!("trace-{workload}.json"));
        if trace {
            let text = std::fs::read_to_string(&trace_file).expect("trace written");
            assert!(json::Json::parse(&text).is_some(), "trace is valid JSON");
        }
        let _ = std::fs::remove_dir_all(&ctx.scratch);
        let _ = std::fs::remove_file(&trace_file);
        let out = out.expect("the run completes");
        assert!(out.correct(), "{workload}: {:?}", out.wrong);
        assert_eq!(out.failed, 0, "{workload}");
        assert!(out.attempted > 0);
        out
    }

    #[test]
    fn every_workload_runs_correct_untraced() {
        let _turn = RECORDER
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for w in WORKLOADS {
            let out = quick(w, false);
            for d in &END_TO_END {
                let v = out.values.get(d.name).copied().unwrap_or(0.0);
                assert!(v > 0.0 && v.is_finite(), "{w}: {} = {v}", d.name);
            }
        }
    }

    #[test]
    fn a_traced_lane_attributes_its_time_to_layers() {
        let _turn = RECORDER
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let out = quick("lane_conn_diff", true);
        for name in [
            "monitor.parse_ns_per_pkt",
            "queue.ship_ns_per_row",
            "stream.offer_ns_per_tuple",
            "store.sink_ns_per_row",
            "stream.hub_publish_ns_per_row",
            "core.tuple_json_ns_per_row",
            "queue.dwell_p50_us",
            "telemetry.serve_p50_us",
            "data.encode_ns_per_row",
        ] {
            assert!(out.values.get(name).copied().unwrap_or(0.0) > 0.0, "{name}");
        }
        let unattributed = out.values["bench.stepped_unattributed_pct"];
        assert!((0.0..50.0).contains(&unattributed), "{unattributed}");
    }
}

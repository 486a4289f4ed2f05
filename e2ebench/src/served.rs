//! `served_queries`: the path a user of the service takes.
//!
//! A `QueryFrontend` over the emulated fabric (a `k = 8` fat tree, one
//! web tier, 16 clients) with one closed-loop HTTP client cycling
//! submit → stream → describe → results → kill. Everything after the
//! spawn goes over HTTP: `query` → `placement` → `sdn` → `netsim` /
//! `apps` → inline monitor and executor → hub → socket.
//!
//! One frontend serves the whole run, as a long-lived service does. A
//! deployment slows with the queries it has served (submit → first line
//! rises stretch by stretch), so a stretch is a fixed number of cycles:
//! the median stretch then meets the same deployment on every run. The
//! rise itself is reported as `core.first_line_drift_pct`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use crate::gen::{mix, Zipf};
use crate::http;
use crate::json::Json;
use crate::metrics::RunOutput;
use crate::spans::{self, span};
use crate::stats::{mean, median, percentile, spread_pct};
use crate::sut::{self, FabricSpec};
use crate::{procfs, Ctx};

/// The query every cycle submits.
pub const QUERY: &str = "PARSE http_get FROM * TO web:80 LIMIT 600s SAMPLE * \
                         PROCESS (top-k: k=3, w=100ms, key=url)";

/// Result lines each cycle waits for.
const LINES: usize = 3;

/// Cycles per second a stretch's length is converted at: about what one
/// frontend sustains over the first twelve seconds of its life on the
/// host this was written on.
const NOMINAL_CYCLES_PER_S: f64 = 50.0;

/// Set-ups per run at full size (tens of milliseconds each); `setup_s`
/// is their median.
const SETUP_REPEATS: usize = 15;

/// The fabric: the seed picks each conversation's URL.
pub fn fabric_spec(ctx: &Ctx) -> FabricSpec {
    let urls: Vec<String> = (0..8).map(|u| format!("/page/{u}")).collect();
    let zipf = Zipf::new(urls.len(), 1.1);
    let seed = ctx.seed;
    // While the frontend idles, virtual time runs up to twenty times
    // ahead of the wall clock (10 ms per 500 us poll), so the clients'
    // schedule has to outlast the run twenty times over — and the run is
    // a fixed number of cycles, so allow it twice its nominal length.
    let nominal_s = ctx.closed_stretch_s() * (ctx.stretches() + 1) as f64;
    let span_s = (20.0 * (2.0 * nominal_s + 2.0)) as u64;
    let (k, clients) = if ctx.quick { (4, 4) } else { (8, 16) };
    FabricSpec {
        k,
        clients,
        gap_ms: 40,
        span_s,
        urls,
        pick: Arc::new(move |c, n| {
            let h = mix(seed ^ u64::from(c) << 40 ^ n);
            let mut rng = crate::gen::Rng::new(h, 4);
            zipf.sample(&mut rng)
        }),
    }
}

/// Client-side timing of one cycle's steps, milliseconds.
#[derive(Debug, Default)]
struct StepTimes {
    submit: Vec<f64>,
    first_line: Vec<f64>,
    describe: Vec<f64>,
    results: Vec<f64>,
    kill: Vec<f64>,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// One full cycle. `Ok` carries the submit → first line latency in ms;
/// `Err` says which step failed.
fn cycle(addr: SocketAddr, times: &mut StepTimes) -> Result<f64, String> {
    let t_submit = Instant::now();
    let resp = {
        let _g = span("core.submit");
        http::request(addr, "POST", "/queries", QUERY).map_err(|e| format!("submit: {e}"))?
    };
    times.submit.push(ms(t_submit));
    if resp.status != 201 {
        return Err(format!("submit: status {}: {}", resp.status, resp.body));
    }
    let cookie = Json::parse(&resp.body)
        .and_then(|d| d.get("cookie")?.as_u64())
        .ok_or_else(|| format!("submit: no cookie in {}", resp.body))?;

    // From here on the query is live: always try to kill it, whatever
    // else fails, so a failed cycle does not leak a deployment.
    let rest = (|| -> Result<f64, String> {
        let stream_span = span("core.stream");
        let (status, mut reader) =
            http::open_stream(addr, &format!("/queries/{cookie}/stream?max={LINES}"))
                .map_err(|e| format!("stream: {e}"))?;
        if status != 200 {
            return Err(format!("stream: status {status}"));
        }
        let mut first = None;
        let mut lines = 0;
        while let Some(line) = reader.next_line().map_err(|e| format!("stream: {e}"))? {
            first.get_or_insert_with(|| ms(t_submit));
            let doc = Json::parse(&line).ok_or_else(|| format!("stream: malformed {line}"))?;
            let fields = doc.get("fields");
            let well_formed = doc.get("ts_ns").and_then(Json::as_u64).is_some()
                && fields
                    .and_then(|f| f.get("key"))
                    .and_then(Json::as_str)
                    .is_some()
                && fields
                    .and_then(|f| f.get("count"))
                    .and_then(Json::as_u64)
                    .is_some();
            if !well_formed {
                return Err(format!("stream: not a rank row: {line}"));
            }
            lines += 1;
        }
        if lines < LINES {
            return Err(format!("stream: {lines} lines, want {LINES}"));
        }
        let first = first.expect("lines were read");
        times.first_line.push(first);
        drop(stream_span);

        let t = Instant::now();
        let resp = {
            let _g = span("core.describe");
            http::request(addr, "GET", &format!("/queries/{cookie}"), "")
                .map_err(|e| format!("describe: {e}"))?
        };
        times.describe.push(ms(t));
        let described = Json::parse(&resp.body).and_then(|d| d.get("cookie")?.as_u64());
        if resp.status != 200 || described != Some(cookie) {
            return Err(format!("describe: status {}: {}", resp.status, resp.body));
        }

        let t = Instant::now();
        let resp = {
            let _g = span("core.results");
            http::request(
                addr,
                "GET",
                &format!("/queries/{cookie}/results?mode=latest"),
                "",
            )
            .map_err(|e| format!("results: {e}"))?
        };
        times.results.push(ms(t));
        let mode =
            Json::parse(&resp.body).and_then(|d| d.get("mode")?.as_str().map(str::to_string));
        if resp.status != 200 || mode.as_deref() != Some("latest") {
            return Err(format!("results: status {}: {}", resp.status, resp.body));
        }
        Ok(first)
    })();

    let t = Instant::now();
    let killed = {
        let _g = span("core.kill");
        http::request(addr, "DELETE", &format!("/queries/{cookie}"), "")
            .map_err(|e| format!("kill: {e}"))
    };
    times.kill.push(ms(t));
    let first = rest?;
    let resp = killed?;
    if resp.status != 200 || !resp.body.contains("\"state\":\"killed\"") {
        return Err(format!("kill: status {}: {}", resp.status, resp.body));
    }
    Ok(first)
}

/// Runs the workload and fills `out`.
///
/// # Errors
///
/// Setup failures and exceeded deadlines.
pub fn run(ctx: &Ctx, out: &mut RunOutput) -> Result<(), String> {
    let spec = fabric_spec(ctx);
    let measured = ctx.stretches();
    if ctx.trace {
        spans::enable();
    }
    // Set-up, several times; the last frontend is kept and serves the
    // whole run.
    let mut setup_secs = Vec::new();
    let mut kept = None;
    for _ in 0..ctx.setup_repeats(SETUP_REPEATS) {
        drop(kept.take());
        let t0 = Instant::now();
        let frontend = sut::spawn_served_frontend(spec.clone())?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        kept = Some(frontend);
    }
    let frontend = kept.expect("at least one set-up");
    let addr = frontend.addr();
    let mut times = StepTimes::default();
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut measured_secs = 0.0;
    let cpu0 = procfs::process_cpu_us();
    let mut cycles_total = 0u64;
    // A stretch is a fixed number of cycles, not a fixed time: stretch
    // `i` then meets the frontend with the same number of queries served
    // on every run, whatever the host's speed.
    let cycles = (ctx.closed_stretch_s() * NOMINAL_CYCLES_PER_S)
        .round()
        .max(1.0) as u64;
    for i in 0..=measured {
        let mut first_lines = Vec::new();
        let t0 = Instant::now();
        for _ in 0..cycles {
            match cycle(addr, &mut times) {
                Ok(first) => first_lines.push(first),
                Err(why) => {
                    out.failed += 1;
                    if out.wrong.len() < 8 {
                        out.wrong.push(why);
                    }
                }
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        out.attempted += cycles;
        if i > 0 {
            rates.push(cycles as f64 / secs);
            p50s.push(percentile(&first_lines, 0.5));
            cycles_total += cycles;
            measured_secs += secs;
        }
    }
    let cpu_us = procfs::process_cpu_us().saturating_sub(cpu0);
    drop(frontend);
    if ctx.trace {
        spans::disable();
    }

    ctx.note(&format!(
        "cycles/s per stretch {rates:.1?}; first line p50 ms {p50s:.2?}; \
         set-ups s {setup_secs:.3?}"
    ));
    if !ctx.trace {
        out.values
            .insert("setup_s", ctx.startup_s + median(&setup_secs));
        // The one frontend slows with every query it has served, so the
        // stretches fall in a fixed order and their median would be the
        // middle stretch alone. All of them count instead: cycles over
        // the whole measured time, and the mean of the stretches' p50s.
        out.values
            .insert("goodput_per_s", cycles_total as f64 / measured_secs);
        out.values.insert("result_latency_p50_ms", mean(&p50s));
        return Ok(());
    }
    let v = &mut out.values;
    v.insert("core.submit_ms_p50", percentile(&times.submit, 0.5));
    v.insert("core.first_line_ms_p50", percentile(&times.first_line, 0.5));
    v.insert("core.describe_ms_p50", percentile(&times.describe, 0.5));
    v.insert("core.results_ms_p50", percentile(&times.results, 0.5));
    v.insert("core.kill_ms_p50", percentile(&times.kill, 0.5));
    // How much slower the last measured stretch's first line was than
    // the first's, on the one frontend.
    if let (Some(first), Some(last)) = (p50s.first(), p50s.last()) {
        v.insert("core.first_line_drift_pct", (last - first) / first * 100.0);
    }
    v.insert("bench.stretch_spread_pct", spread_pct(&rates));
    v.insert(
        "bench.cpu_us_per_input",
        cpu_us as f64 / cycles_total.max(1) as f64,
    );
    crate::probes::run(ctx, None, out)?;
    ctx.write_trace(&spans::take_all())
}

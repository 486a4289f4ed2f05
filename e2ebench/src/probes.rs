//! Layer probes: small fixed-work measurements of single layers, taken
//! from outside through the same public functions the workloads call.
//! They run at the end of every traced run, whatever the workload, so a
//! layer's own cost can be read beside the workload's attribution.

use std::time::Instant;

use crate::gen;
use crate::http;
use crate::metrics::RunOutput;
use crate::served;
use crate::spans::span;
use crate::stats::median;
use crate::sut::{self, Packet, StoreHandle};
use crate::{procfs, Ctx};

/// Runs every probe and adds its metrics to `out` (never overwriting a
/// value the workload measured itself). `sample` is a parser name and a
/// burst of the run's own packets; without one the HTTP lane's shape is
/// used.
///
/// # Errors
///
/// A probe whose output is wrong, or an exceeded deadline.
pub fn run(
    ctx: &Ctx,
    sample: Option<(&str, &[Packet])>,
    out: &mut RunOutput,
) -> Result<(), String> {
    let rounds = if ctx.quick { 20 } else { 200 };
    let default_packets: Vec<Packet>;
    let (parser, packets) = match sample {
        Some(s) => s,
        None => {
            let input = gen::http_input(ctx.seed, 64, 16, sut::BATCH_ROWS);
            default_packets = input
                .seq
                .iter()
                .map(|&u| input.pool[u as usize].clone())
                .collect();
            ("http_get", default_packets.as_slice())
        }
    };
    let mut put = |name: &'static str, v: f64| {
        out.values.entry(name).or_insert(v);
    };

    // packet: header view + flow key.
    let per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let _g = span("packet.view");
            let t0 = Instant::now();
            let ok = packets.iter().filter(|p| sut::view_and_flow(p)).count();
            let ns = t0.elapsed().as_nanos() as f64;
            assert_eq!(ok, packets.len(), "generated packets parse");
            ns / packets.len() as f64
        })
        .collect();
    put("packet.view_ns_per_pkt", median(&per_round));

    // data: the columnar codec round trip and the row detour.
    let batch = sut::sample_batch(parser, packets)?;
    let rows = batch.rows().max(1) as f64;
    let (mut enc, mut dec, mut to_rows, mut bytes) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for _ in 0..rounds {
        let _g = span("data.codec");
        let (e, d, t, b) = sut::codec_round_trip(&batch)?;
        enc.push(e as f64 / rows);
        dec.push(d as f64 / rows);
        to_rows.push(t as f64 / rows);
        bytes = b;
    }
    put("data.encode_ns_per_row", median(&enc));
    put("data.decode_ns_per_row", median(&dec));
    put("data.to_rows_ns_per_row", median(&to_rows));
    put("data.wire_bytes_per_row", bytes as f64 / rows);

    // core: one result row rendered as its NDJSON line.
    let tuples = sut::rows_of(&batch);
    let mut line_len = 0;
    let per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let _g = span("core.tuple_json");
            let t0 = Instant::now();
            for t in &tuples {
                line_len += sut::render_line(t).len();
            }
            t0.elapsed().as_nanos() as f64 / tuples.len().max(1) as f64
        })
        .collect();
    if line_len == 0 {
        return Err("probe: empty NDJSON lines".into());
    }
    put("core.tuple_json_ns_per_row", median(&per_round));

    // store: direct appends, on-disk size, reopen.
    let total: u64 = if ctx.quick { 6_400 } else { 64_000 };
    let shape = gen::HistShape::new(total, 4, 64);
    let dir = ctx.fresh_dir("probe-store")?;
    let store = StoreHandle::open(&dir)?;
    let mut append_ns = Vec::new();
    let mut k0 = 0;
    while k0 < shape.per_series {
        for s in 0..shape.series {
            let rows: Vec<sut::HistRow> = (k0..k0 + 64)
                .map(|k| gen::hist_row(ctx.seed, &shape, s, k))
                .collect();
            let _g = span("store.append");
            let t0 = Instant::now();
            store.append(&gen::series_name(s), &rows)?;
            append_ns.push(t0.elapsed().as_nanos() as f64 / 64.0);
        }
        k0 += 64;
    }
    let (tuples_stored, log_bytes, _) = store.stats();
    if tuples_stored != total {
        return Err(format!(
            "probe: store holds {tuples_stored} of {total} tuples"
        ));
    }
    put("store.append_ns_per_tuple", median(&append_ns));
    put("store.bytes_per_tuple", log_bytes as f64 / total as f64);
    drop(store);
    let t0 = Instant::now();
    let reopened = {
        let _g = span("store.open");
        StoreHandle::open(&dir)?
    };
    put("store.open_ms", t0.elapsed().as_secs_f64() * 1e3);
    if reopened.stats().0 != total {
        return Err("probe: reopen lost tuples".into());
    }
    drop(reopened);

    // telemetry: one full-body round trip, and a chunked stream.
    let lines: u64 = if ctx.quick { 2_000 } else { 20_000 };
    let line = tuples.first().map(sut::render_line).unwrap_or_default();
    let server = sut::spawn_telemetry_probe(line, lines)?;
    let addr = server.local_addr();
    let mut trips = Vec::new();
    for _ in 0..rounds {
        let _g = span("telemetry.http_roundtrip");
        let t0 = Instant::now();
        let resp = http::request(addr, "GET", "/metrics", "").map_err(|e| format!("probe: {e}"))?;
        trips.push(t0.elapsed().as_secs_f64() * 1e6);
        if resp.status != 200 || !resp.body.contains("bench_probe") {
            return Err(format!("probe: /metrics answered {}", resp.status));
        }
    }
    put("telemetry.http_roundtrip_us", median(&trips));
    let t0 = Instant::now();
    let (status, mut reader) =
        http::open_stream(addr, "/lines").map_err(|e| format!("probe: {e}"))?;
    let mut got = 0u64;
    {
        let _g = span("telemetry.ndjson_stream");
        while reader
            .next_line()
            .map_err(|e| format!("probe: {e}"))?
            .is_some()
        {
            got += 1;
        }
    }
    if status != 200 || got != lines {
        return Err(format!("probe: {got} of {lines} lines, status {status}"));
    }
    put(
        "telemetry.ndjson_lines_per_s",
        got as f64 / t0.elapsed().as_secs_f64(),
    );
    drop(server);

    // query: parse + compile of the served query text.
    let mut us = Vec::new();
    for _ in 0..rounds {
        let _g = span("query.parse_compile");
        us.push(sut::parse_compile_ns(served::QUERY)? as f64 / 1e3);
    }
    put("query.parse_compile_us", median(&us));

    // netsim: virtual time the served fabric advances per wall time,
    // with the served query deployed.
    let virtual_ms = if ctx.quick { 100 } else { 500 };
    let wall_ns = {
        let _g = span("netsim.run_until");
        sut::run_fabric_ns(&served::fabric_spec(ctx), served::QUERY, virtual_ms)?
    };
    put(
        "netsim.virtual_ms_per_wall_ms",
        virtual_ms as f64 / (wall_ns as f64 / 1e6).max(1e-9),
    );

    put("bench.peak_rss_mb", procfs::peak_rss_mb());
    Ok(())
}

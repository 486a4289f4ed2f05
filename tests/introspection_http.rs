//! Integration: the live introspection endpoint, end to end.
//!
//! Two planes, one HTTP surface:
//!
//! * the **orchestrator plane** — a query runs on the discrete-event
//!   engine with tracing enabled; `Orchestrator::serve` then exposes
//!   metrics, the query directory, virtual-clock waterfalls, and the
//!   flight-recorder journal over real sockets;
//! * the **threaded lane** — columnar pipeline → `QueueWriter` → queue →
//!   executor → store on the wall clock, fetched over HTTP as the full
//!   four-stage parse → queue → bolt → store waterfall.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use netalytics::{Orchestrator, TraceConfig};
use netalytics_apps::{sample_sink, ClientApp, Conversation, StaticHttpBehavior, TierApp};
use netalytics_monitor::{Pipeline, PipelineConfig, SampleSpec};
use netalytics_netsim::{SimDuration, SimTime};
use netalytics_packet::{http, Packet, TcpFlags};
use netalytics_queue::{QueueCluster, QueueConfig, QueueWriter};
use netalytics_store::{StoreSink, TimeSeriesStore};
use netalytics_stream::spout::drive;
use netalytics_stream::{
    build_executor_traced, topologies, ExecutorMode, ProcessorSpec, QueueSpout,
};
use netalytics_telemetry::{
    wall_now_ns, Introspection, Journal, MetricsRegistry, QueryDirectory, TelemetryServer, Tracer,
};

const QUERY: &str = "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
                     PROCESS (group-sum: group=url, value=t_ns)";

/// Minimal blocking HTTP/1.1 GET against the introspection server.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("request");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("response");
    let (head, body) = resp.split_once("\r\n\r\n").expect("header/body split");
    (
        head.lines().next().unwrap_or("").to_string(),
        body.to_string(),
    )
}

fn deploy_web(orch: &mut Orchestrator, conversations: u64) {
    orch.name_host("web", 1);
    let web_ip = orch.host_ip(1);
    orch.deploy_app(
        1,
        Box::new(TierApp::new(80, Box::new(StaticHttpBehavior::new(1.0, 3)))),
    );
    let schedule = (0..conversations)
        .map(|i| {
            (
                SimTime::from_nanos(i * 10_000_000),
                Conversation {
                    dst: (web_ip, 80),
                    requests: vec![http::build_get("/r", "web")],
                    tag: "c".into(),
                },
            )
        })
        .collect();
    orch.deploy_app(0, Box::new(ClientApp::new(schedule, sample_sink())));
}

/// The orchestrator plane serves every endpoint for a real query: the
/// directory knows its lifecycle, `/trace` shows virtual-clock
/// waterfalls, and `/events` replays the journal — all over sockets.
#[test]
fn orchestrator_serves_query_trace_and_events_over_http() {
    let mut orch = Orchestrator::builder(4)
        .tracing(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        })
        .build();
    deploy_web(&mut orch, 40);
    let q = orch.submit(QUERY).expect("submit");
    let cookie = q.cookie();
    let deadline = q.deadline().expect("time-limited query");
    orch.run_reconciling(&q, deadline + SimDuration::from_millis(50))
        .expect("run");
    let report = orch.kill(&q).expect("running query");
    assert!(report.aggregator.tuples_in > 0, "query saw traffic");

    let srv = orch.serve("127.0.0.1:0").expect("bind introspection");
    let addr = srv.local_addr();

    let (status, index) = http_get(addr, "/");
    assert!(status.contains("200"), "{status}");
    assert!(index.contains("/metrics") && index.contains("/trace"));

    // Tracing at sample_every=1 populated the stage histograms.
    let (status, metrics) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(
        metrics.contains("trace_stage_ns"),
        "stage histograms exported"
    );

    let (_, list) = http_get(addr, "/queries");
    assert!(list.contains(&format!("\"cookie\":{cookie}")));
    let (status, one) = http_get(addr, &format!("/queries/{cookie}"));
    assert!(status.contains("200"), "{status}");
    assert!(
        one.contains("\"state\":\"killed\""),
        "finalized query: {one}"
    );
    assert!(one.contains("\"monitors\":"), "{one}");

    // Virtual-clock waterfalls: parse, queue and bolt stages (the
    // netsim plane has no store sink, so no `store` span here).
    let (status, trace) = http_get(addr, &format!("/trace/{cookie}"));
    assert!(status.contains("200"), "{status}");
    for stage in ["parse", "queue", "bolt"] {
        assert!(
            trace.contains(&format!("\"stage\":\"{stage}\"")),
            "{stage} span missing from {trace}"
        );
    }

    // The flight recorder replays the query's lifecycle.
    let (_, events) = http_get(addr, &format!("/events?cookie={cookie}"));
    for kind in ["query_submitted", "query_deployed", "query_killed"] {
        assert!(events.contains(kind), "{kind} missing from {events}");
    }
}

/// The acceptance waterfall: traffic through the wall-clock threaded
/// lane — columnar monitor pipeline, queue writer and cluster, executor,
/// store sink — and the resulting ≥4-stage parse → queue → bolt → store
/// waterfall fetched over HTTP.
#[test]
fn threaded_lane_waterfall_spans_parse_queue_bolt_store_over_http() {
    const COOKIE: u64 = 42;
    let registry = Arc::new(MetricsRegistry::new());
    let tracer = Arc::new(Tracer::with_registry(
        TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        },
        Arc::clone(&registry),
    ));

    // Stages 1+2: parse and queue. Every sealed column batch gets
    // stamped (sample_every=1), records its `parse` span, and is shipped
    // by the parser worker straight into the broker, where it dwells
    // until the spout decodes it and records the `queue` span.
    let cluster = Arc::new(QueueCluster::new(QueueConfig::default()));
    let writer = Arc::new(QueueWriter::new(Arc::clone(&cluster), "http_get"));
    let pipeline = Pipeline::spawn_with_sink(
        PipelineConfig {
            parsers: vec!["http_get".into()],
            sample: SampleSpec::All,
            batch_size: 8,
            metrics: Some(Arc::clone(&registry)),
            tracing: Some((COOKIE, Arc::clone(&tracer))),
            ..Default::default()
        },
        Arc::clone(&writer) as _,
    )
    .expect("pipeline");
    let src: std::net::Ipv4Addr = "10.0.0.1".parse().unwrap();
    let dst: std::net::Ipv4Addr = "10.0.0.9".parse().unwrap();
    for i in 0..64u32 {
        let url = if i % 4 == 0 { "/hot" } else { "/cold" };
        // Capture stamps on the tracer's clock, so the queue span (last
        // row's capture → consume) is a real dwell time.
        let pkt = Packet::tcp(
            src,
            4000 + (i % 512) as u16,
            dst,
            80,
            TcpFlags::PSH | TcpFlags::ACK,
            1,
            1,
            &http::build_get(url, "h"),
        );
        pipeline.offer(pkt.at_time(wall_now_ns()));
    }
    let summary = pipeline.shutdown(false);
    assert_eq!(summary.tuples_out, 64);
    assert_eq!(writer.tuples_shipped(), 64);
    let mut spout =
        QueueSpout::new(Arc::clone(&cluster), "http_get", "storm").with_tracer(Arc::clone(&tracer));

    // Stages 3+4: bolt and store. A traced executor runs top-k with a
    // StoreSink appended after its terminals.
    let store = Arc::new(TimeSeriesStore::in_memory());
    let topo = topologies::build(
        &ProcessorSpec::new("top-k")
            .with_arg("k", "2")
            .with_arg("key", "url"),
    )
    .expect("topology");
    let sink_store = Arc::clone(&store);
    let sink_tracer = Arc::clone(&tracer);
    let topo = topo.with_sink("store-sink", move || {
        Box::new(
            StoreSink::new(Arc::clone(&sink_store), COOKIE, Some("url".into()))
                .with_tracer(Arc::clone(&sink_tracer)),
        )
    });
    // Inline, as on the benchmark's stepped lane: it hands a traced
    // batch's context to every bolt, so the sink can close the trace even
    // though windowed top-k only emits at a tick. The sharded engine hands
    // it only to bolts on the traced slab's own chain.
    let mut exec = build_executor_traced(
        &topo,
        ExecutorMode::Inline,
        Some(&registry),
        Some(Arc::clone(&tracer)),
    );
    // One message per poll, so every traced context rides its own batch
    // through the executor (the spout's merged batch carries only the
    // first context it decodes).
    let mut out = drive(&mut spout, exec.as_mut(), 1, &AtomicBool::new(true));
    out.extend(exec.stop(wall_now_ns()));
    assert!(!out.is_empty(), "rankings emitted");
    drop(exec); // the sink's final flush closes any open store spans
    assert!(store.stats().tuples > 0, "rankings committed to the store");

    // At least one exemplar carries the complete four-stage waterfall.
    let falls = tracer.waterfalls(COOKIE);
    assert!(!falls.is_empty(), "exemplars retained");
    let complete = falls.iter().any(|f| {
        let stages: std::collections::HashSet<&str> =
            f.spans.iter().map(|s| s.stage.as_str()).collect();
        ["parse", "queue", "bolt", "store"]
            .iter()
            .all(|s| stages.contains(s))
    });
    assert!(
        complete,
        "a parse→queue→bolt→store exemplar exists: {falls:?}"
    );

    // Serve the bundle and fetch the same waterfall over HTTP.
    let queries = Arc::new(QueryDirectory::new());
    queries.submitted(COOKIE, "top-k over http_get (threaded lane)", 1);
    queries.deployed(COOKIE, 1, "localhost", 2);
    let state = Introspection {
        registry: Arc::clone(&registry),
        tracer: Arc::clone(&tracer),
        journal: Arc::new(Journal::new(16)),
        queries,
    };
    let srv = TelemetryServer::spawn("127.0.0.1:0", state).expect("bind");
    let addr = srv.local_addr();

    let (status, trace) = http_get(addr, &format!("/trace/{COOKIE}"));
    assert!(status.contains("200"), "{status}");
    for stage in ["parse", "queue", "bolt", "store"] {
        assert!(
            trace.contains(&format!("\"stage\":\"{stage}\"")),
            "{stage} span missing over HTTP"
        );
    }

    let (status, metrics) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(metrics.contains("monitor_packets_in 64"), "{metrics}");
    assert!(
        metrics.contains("trace_stage_ns"),
        "stage histograms exported"
    );

    let (_, one) = http_get(addr, &format!("/queries/{COOKIE}"));
    assert!(one.contains("\"state\":\"running\""), "{one}");
}

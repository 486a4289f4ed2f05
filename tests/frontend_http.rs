//! Integration: the production query frontend over real sockets.
//!
//! A [`QueryFrontend`] drives its backend — one orchestrator, or a
//! sharded cluster — on its own thread while HTTP clients drive the
//! full lifecycle — submit, describe, stream, kill, history, LIMIT
//! expiry — plus the multi-tenant admission surface: over-quota
//! tenants get a typed 429 envelope, and a high-priority submission
//! evicts a low-priority query when the fabric is full.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use netalytics::cluster::{Cluster, ClusterConfig};
use netalytics::{
    FrontendConfig, Orchestrator, QueryFrontend, ShardedConfig, ShardedStore, Tenant, TenantQuota,
    TimeSeriesStore,
};
use netalytics_apps::{sample_sink, ClientApp, Conversation, StaticHttpBehavior, TierApp};
use netalytics_netsim::{App, SimTime};
use netalytics_packet::http;
use netalytics_sdn::InstallMode;
use netalytics_store::{AggValue, HistoryAgg, HistoryQuery, SeriesKey, StoreConfig};

/// A long-lived query: the LIMIT outlives the test, so only an explicit
/// DELETE (or frontend shutdown) ends it. The 100 ms top-k window makes
/// the rank bolt re-emit continuously, so `/stream` always has lines.
const QUERY: &str = "PARSE http_get FROM * TO web:80 LIMIT 600s SAMPLE * \
                     PROCESS (top-k: k=3, w=100ms, key=url)";

/// Native rollup bucket of the stores that need sealed history.
const BUCKET_NS: u64 = 100_000_000;

fn web_tier() -> Box<dyn App> {
    Box::new(TierApp::new(80, Box::new(StaticHttpBehavior::new(1.0, 3))))
}

/// A client driving conversations at the web tier for a long stretch of
/// virtual time so streams always have traffic to show.
fn web_client(web_ip: Ipv4Addr) -> Box<dyn App> {
    let schedule = (0..20_000u64)
        .map(|i| {
            (
                SimTime::from_nanos(i * 10_000_000),
                Conversation {
                    dst: (web_ip, 80),
                    requests: vec![http::build_get(
                        if i % 3 == 0 { "/hot" } else { "/cold" },
                        "web",
                    )],
                    tag: "c".into(),
                },
            )
        })
        .collect();
    Box::new(ClientApp::new(schedule, sample_sink()))
}

/// Web tier on host 1, its client on host 0.
fn deploy_web(orch: &mut Orchestrator) {
    orch.name_host("web", 1);
    orch.deploy_app(1, web_tier());
    orch.deploy_app(0, web_client(orch.host_ip(1)));
}

/// Minimal blocking HTTP/1.1 request. Returns (status-line, body) with
/// any chunked transfer-encoding already decoded.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n");
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    s.write_all(req.as_bytes()).expect("request");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("response");
    let (head, raw) = resp.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(raw)
    } else {
        raw.to_string()
    };
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    request(addr, "GET", path, &[], "")
}

/// Decodes a chunked body: size lines are hex, data follows verbatim.
fn dechunk(raw: &str) -> String {
    let mut out = String::new();
    let mut rest = raw;
    while let Some((size_line, tail)) = rest.split_once("\r\n") {
        let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else {
            break;
        };
        if size == 0 || tail.len() < size {
            break;
        }
        out.push_str(&tail[..size]);
        rest = tail[size..].strip_prefix("\r\n").unwrap_or("");
    }
    out
}

fn extract_cookie(descriptor: &str) -> u64 {
    number_after(descriptor, "\"cookie\":")
}

/// The first unsigned number after `key` in a JSON body.
fn number_after(body: &str, key: &str) -> u64 {
    let idx = body.find(key).unwrap_or_else(|| panic!("{key} in {body}")) + key.len();
    body[idx..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("digits after {key} in {body}"))
}

/// A counter's value on `/metrics` (0 while the series does not exist).
fn counter(addr: SocketAddr, name: &str) -> u64 {
    let (_, metrics) = get(addr, "/metrics");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0)
}

/// Asserts a counter settles at exactly `want`. The driver publishes a
/// pass's counts just after the directory shows its kills, so reaching
/// `want` is awaited; overshooting it is the failure.
fn assert_counter(addr: SocketAddr, name: &str, want: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while counter(addr, name) < want {
        assert!(
            std::time::Instant::now() < deadline,
            "{name} stuck at {}, want {want}",
            counter(addr, name)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(counter(addr, name), want, "{name}");
}

/// Polls the directory until `cookie` is reported killed.
fn wait_killed(addr: SocketAddr, cookie: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let (_, one) = get(addr, &format!("/queries/{cookie}"));
        if one.contains("\"state\":\"killed\"") {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "query {cookie} never killed: {one}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// What the frontend under test drives.
#[derive(Clone, Copy)]
enum Backend {
    /// One orchestrator, built on the frontend's thread.
    Single(InstallMode),
    /// A 2-shard cluster over a k=8 fabric; `web` lives on shard 1.
    Cluster,
}

/// The headline acceptance flow, identical over either backend: POST a
/// query, watch it in the directory, read live NDJSON results off the
/// stream, DELETE it, pull its durable history from the results
/// endpoint, and let a second query run into its LIMIT.
fn lifecycle_on(backend: Backend) {
    let frontend = match backend {
        Backend::Single(mode) => {
            let builder = Orchestrator::builder(4)
                .install_mode(mode)
                .result_store(Arc::new(TimeSeriesStore::in_memory()));
            QueryFrontend::spawn("127.0.0.1:0", builder, deploy_web)
        }
        Backend::Cluster => {
            let cluster = Cluster::new(ClusterConfig {
                store: Some(Arc::new(ShardedStore::in_memory(ShardedConfig::default()))),
                ..ClusterConfig::default()
            });
            // Host 65 sits in pod 4, the first pod of shard 1.
            cluster.name_host("web", 65);
            cluster.deploy_app_on(65, web_tier);
            let web_ip = cluster.host_ip(65);
            cluster.deploy_app_on(64, move || web_client(web_ip));
            QueryFrontend::spawn_cluster(
                "127.0.0.1:0",
                Arc::new(cluster),
                FrontendConfig::default(),
            )
        }
    }
    .expect("spawn");
    let addr = frontend.local_addr();

    // Submit over the wire; the 201 body is the directory descriptor.
    let (status, descriptor) = request(addr, "POST", "/queries", &[], QUERY);
    assert!(status.contains("201"), "{status}: {descriptor}");
    assert!(
        descriptor.contains("\"tenant\":\"default\""),
        "{descriptor}"
    );
    let cookie = extract_cookie(&descriptor);

    // Describe: listed, and running (or still deploying this instant).
    let (_, list) = get(addr, "/queries");
    assert!(list.contains(&format!("\"cookie\":{cookie}")), "{list}");
    let (status, one) = get(addr, &format!("/queries/{cookie}"));
    assert!(status.contains("200"), "{status}");
    assert!(!one.contains("\"state\":\"killed\""), "fresh query: {one}");

    // Stream: incremental result lines arrive while the query runs.
    // `?max=3` ends the stream server-side after 3 tuples.
    let mut stream = TcpStream::connect(addr).expect("connect stream");
    write!(
        stream,
        "GET /queries/{cookie}/stream?max=3 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("stream request");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut streamed = String::new();
    stream.read_to_string(&mut streamed).expect("stream body");
    let lines: Vec<&str> = streamed
        .lines()
        .filter(|l| l.starts_with('{') && l.contains("\"fields\""))
        .collect();
    assert!(
        lines.len() >= 3,
        "streamed >= 3 incremental NDJSON lines before kill, got {}: {streamed:?}",
        lines.len()
    );

    // A second subscriber still sees live lines (fan-out, not takeover),
    // this time reading incrementally and killing mid-stream.
    let mut live = TcpStream::connect(addr).expect("connect live stream");
    write!(
        live,
        "GET /queries/{cookie}/stream HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("live stream request");
    live.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(live);
    let mut line = String::new();
    // Skip response headers + chunk framing until a result line shows.
    let got_line = loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break false,
            Ok(_) if line.starts_with('{') && line.contains("\"fields\"") => break true,
            Ok(_) => continue,
            Err(e) => panic!("stream read failed: {e}"),
        }
    };
    assert!(
        got_line,
        "live subscriber saw a result line before the kill"
    );

    // Kill over the wire while the stream is open: 200 with a teardown
    // summary, and the open stream terminates (read hits EOF).
    let (status, summary) = request(addr, "DELETE", &format!("/queries/{cookie}"), &[], "");
    assert!(status.contains("200"), "{status}: {summary}");
    assert!(summary.contains("\"state\":\"killed\""), "{summary}");
    let mut remainder = String::new();
    reader
        .read_to_string(&mut remainder)
        .expect("stream drains to EOF after kill");

    // The directory now reports the query killed...
    let (_, one) = get(addr, &format!("/queries/{cookie}"));
    assert!(one.contains("\"state\":\"killed\""), "{one}");
    // ...killing again is a 404 with the typed envelope...
    let (status, body) = request(addr, "DELETE", &format!("/queries/{cookie}"), &[], "");
    assert!(status.contains("404"), "{status}");
    assert!(body.contains("\"code\":\"not_found\""), "{body}");
    // ...and the durable history survives the kill.
    let (status, history) = get(addr, &format!("/queries/{cookie}/results"));
    assert!(status.contains("200"), "{status}: {history}");
    assert!(history.contains("\"mode\":\"history\""), "{history}");
    let count = number_after(&history, "\"count\":");
    assert!(count >= 1, "committed results replayed: {history}");

    // The journal saw the whole lifecycle over HTTP too.
    let (_, events) = get(addr, &format!("/events?cookie={cookie}"));
    for kind in ["query_submitted", "query_deployed", "query_killed"] {
        assert!(events.contains(kind), "{kind} missing from {events}");
    }

    // LIMIT expiry: nobody deletes this one; the control pass does,
    // once the deadline plus its grace has passed in virtual time.
    assert_eq!(counter(addr, "frontend_deadline_kills"), 0);
    let short = QUERY.replace("LIMIT 600s", "LIMIT 300ms");
    let (status, descriptor) = request(addr, "POST", "/queries", &[], &short);
    assert!(status.contains("201"), "{status}: {descriptor}");
    let expiring = extract_cookie(&descriptor);
    wait_killed(addr, expiring);
    assert_counter(addr, "frontend_deadline_kills", 1);
    let (status, _) = request(addr, "DELETE", &format!("/queries/{expiring}"), &[], "");
    assert!(status.contains("404"), "already torn down: {status}");

    // The cluster views exist exactly when a cluster is behind the API.
    let (shards_status, shards) = get(addr, "/cluster/shards");
    let (metrics_status, metrics) = get(addr, "/cluster/metrics");
    match backend {
        Backend::Single(_) => {
            assert!(shards_status.contains("404"), "{shards_status}");
            assert!(metrics_status.contains("404"), "{metrics_status}");
        }
        Backend::Cluster => {
            for c in [cookie, expiring] {
                assert_eq!(Cluster::shard_of_cookie(c), 1, "web routed to shard 1");
            }
            assert!(shards_status.contains("200"), "shards: {shards_status}");
            assert!(shards.contains("\"index\":0") && shards.contains("\"index\":1"));
            assert!(metrics_status.contains("200"), "metrics: {metrics_status}");
            assert!(metrics.contains("shard=\"1\""), "shard labels rendered");
        }
    }
}

#[test]
fn frontend_lifecycle_proactive_plane() {
    lifecycle_on(Backend::Single(InstallMode::Proactive));
}

#[test]
fn frontend_lifecycle_reactive_plane() {
    lifecycle_on(Backend::Single(InstallMode::Reactive));
}

#[test]
fn frontend_lifecycle_cluster_backend() {
    lifecycle_on(Backend::Cluster);
}

/// Bounded memory on the served plane: nobody reads a served query's
/// rows out of its executors (the store and the hub have them), so the
/// control pass drains them — a standing query holds one pass's
/// emissions, not its whole life's — and the kill summary still counts
/// every row the processor emitted.
#[test]
fn frontend_served_query_rows_are_drained_every_pass() {
    let builder = Orchestrator::builder(4).result_store(Arc::new(TimeSeriesStore::in_memory()));
    let frontend = QueryFrontend::spawn("127.0.0.1:0", builder, deploy_web).expect("bind");
    let addr = frontend.local_addr();
    let (status, descriptor) = request(addr, "POST", "/queries", &[], QUERY);
    assert!(status.contains("201"), "{status}: {descriptor}");
    let cookie = extract_cookie(&descriptor);

    // Let a hundred windows' worth of rank rows come out.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while counter(addr, "stream_emitted") < 300 {
        assert!(std::time::Instant::now() < deadline, "query never emitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Held = emitted − drained. The driver keeps ticking between the
    // two reads, so `drained` is read first: the difference can only
    // over-count, by the few windows (≤ 3 rows each, one per ten
    // passes) that close in between.
    let drained = counter(addr, "stream_drained");
    let emitted = counter(addr, "stream_emitted");
    assert!(
        emitted >= 300 && drained > 0,
        "{emitted} emitted, {drained} drained"
    );
    assert!(
        emitted - drained <= 30,
        "{} rows held by the executors after {emitted} emitted",
        emitted - drained
    );

    let (status, summary) = request(addr, "DELETE", &format!("/queries/{cookie}"), &[], "");
    assert!(status.contains("200"), "{status}: {summary}");
    let (status, history) = get(addr, &format!("/queries/{cookie}/results"));
    assert!(status.contains("200"), "{status}");
    let (reported, stored) = (
        number_after(&summary, "\"tuples\":"),
        number_after(&history, "\"count\":"),
    );
    assert!(reported >= emitted, "{reported} reported, {emitted} seen");
    assert_eq!(reported, stored, "the summary counts every stored row");
}

/// Result lines one `/stream?max=3` subscriber reads before the server
/// ends the stream, pausing `lag` after each line like a slow consumer.
fn subscribe(addr: SocketAddr, cookie: u64, lag: Option<Duration>) -> usize {
    let mut s = TcpStream::connect(addr).expect("connect subscriber");
    write!(
        s,
        "GET /queries/{cookie}/stream?max=3 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("stream request");
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut seen = 0;
    for line in BufReader::new(s).lines() {
        let line = line.expect("stream read");
        if line.starts_with('{') && line.contains("\"fields\"") {
            seen += 1;
            if let Some(pause) = lag {
                std::thread::sleep(pause);
            }
        }
    }
    seen
}

#[test]
fn frontend_streams_to_100_concurrent_subscribers_some_slow() {
    let builder = Orchestrator::builder(4).result_store(Arc::new(TimeSeriesStore::in_memory()));
    let frontend = QueryFrontend::spawn("127.0.0.1:0", builder, deploy_web).expect("spawn");
    let addr = frontend.local_addr();
    let (status, descriptor) = request(addr, "POST", "/queries", &[], QUERY);
    assert!(status.contains("201"), "{status}: {descriptor}");
    let cookie = extract_cookie(&descriptor);

    // Streams run on their own threads, so 100 open at once; every tenth
    // drags its reads and must not hold the other ninety back.
    let subscribers: Vec<_> = (0..100)
        .map(|i| {
            let lag = (i % 10 == 9).then(|| Duration::from_millis(25));
            std::thread::spawn(move || subscribe(addr, cookie, lag))
        })
        .collect();
    for (i, sub) in subscribers.into_iter().enumerate() {
        let seen = sub.join().expect("subscriber thread");
        assert!(seen >= 3, "subscriber {i} saw {seen} of 3 live lines");
    }

    let (delivered, _shed) = frontend.stream_stats(cookie).expect("hub stats");
    assert!(delivered >= 300, "hub delivered {delivered} < 100 x 3");
    let (status, summary) = request(addr, "DELETE", &format!("/queries/{cookie}"), &[], "");
    assert!(status.contains("200"), "{status}: {summary}");
    assert!(summary.contains("\"state\":\"killed\""), "{summary}");
}

/// Submitting garbage is a 400 with the stable envelope, and an unknown
/// tenant is refused with a 403 — identity, not load.
#[test]
fn frontend_submit_errors_use_typed_envelope() {
    let frontend =
        QueryFrontend::spawn("127.0.0.1:0", Orchestrator::builder(4), deploy_web).expect("spawn");
    let addr = frontend.local_addr();

    let (status, body) = request(addr, "POST", "/queries", &[], "PARSE nonsense!!");
    assert!(status.contains("400"), "{status}: {body}");
    assert!(body.contains("\"code\":\"parse_error\""), "{body}");
    assert!(body.contains("\"message\":"), "{body}");

    let (status, body) = request(addr, "POST", "/queries", &[], "");
    assert!(status.contains("400"), "{status}: {body}");

    let (status, body) = request(addr, "POST", "/queries?tenant=nobody", &[], QUERY);
    assert!(status.contains("403"), "{status}: {body}");
    assert!(body.contains("\"code\":\"unknown_tenant\""), "{body}");
    assert!(body.contains("nobody"), "{body}");
}

/// The acceptance quota scenario: a tenant capped at one concurrent
/// query gets a typed 429 on its second submission, and killing the
/// first frees the slot.
#[test]
fn frontend_over_quota_tenant_gets_typed_429() {
    let quota = TenantQuota {
        max_concurrent_queries: 1,
        ..TenantQuota::UNLIMITED
    };
    let builder = Orchestrator::builder(8).tenant(Tenant::new("smallco", quota, 100));
    let frontend = QueryFrontend::spawn("127.0.0.1:0", builder, deploy_web).expect("spawn");
    let addr = frontend.local_addr();

    // Tenant via header on the first submit, via query param on the
    // second — both spellings address the same ledger.
    let (status, descriptor) = request(addr, "POST", "/queries", &[("X-Tenant", "smallco")], QUERY);
    assert!(status.contains("201"), "{status}: {descriptor}");
    assert!(
        descriptor.contains("\"tenant\":\"smallco\""),
        "{descriptor}"
    );
    let cookie = extract_cookie(&descriptor);

    let (status, body) = request(addr, "POST", "/queries?tenant=smallco", &[], QUERY);
    assert!(status.contains("429"), "expected 429, got {status}: {body}");
    assert!(
        body.contains("\"code\":\"quota_concurrent_queries\""),
        "{body}"
    );
    assert!(body.contains("\"detail\":\"tenant=smallco\""), "{body}");

    // The default tenant is not affected by smallco's quota.
    let (status, other) = request(addr, "POST", "/queries", &[], QUERY);
    assert!(status.contains("201"), "{status}: {other}");

    // Kill the first query: the slot frees and smallco can submit again.
    let (status, _) = request(addr, "DELETE", &format!("/queries/{cookie}"), &[], "");
    assert!(status.contains("200"), "{status}");
    let (status, body) = request(addr, "POST", "/queries?tenant=smallco", &[], QUERY);
    assert!(
        status.contains("201"),
        "slot freed by kill: {status}: {body}"
    );
}

/// The analytics read surface: `mode=aggregate` answers through the
/// history engine (plan attached), `mode=rollup` serves bucketed
/// summaries, and every malformed spelling — unknown mode, missing
/// field, sub-native bucket — is a typed 400, not a 500 or a guess.
#[test]
fn frontend_results_aggregate_and_rollup_modes() {
    // Small segments and 100 ms buckets, so the run soon has sealed,
    // cell-summarised history to aggregate over.
    let store = Arc::new(TimeSeriesStore::in_memory_with(StoreConfig {
        segment_max_bytes: 2_000,
        rollup_bucket_ns: BUCKET_NS,
        ..StoreConfig::default()
    }));
    let builder = Orchestrator::builder(4).result_store(Arc::clone(&store));
    let frontend = QueryFrontend::spawn("127.0.0.1:0", builder, deploy_web).expect("spawn");
    let addr = frontend.local_addr();

    let (status, descriptor) = request(addr, "POST", "/queries", &[], QUERY);
    assert!(status.contains("201"), "{status}: {descriptor}");
    let cookie = extract_cookie(&descriptor);

    // Wait until the sink has committed something to aggregate over.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (_, history) = get(addr, &format!("/queries/{cookie}/results"));
        if !history.contains("\"count\":0,") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "results never committed: {history}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Aggregate: summed counts over the whole retained range, with the
    // execution plan in the envelope.
    let (status, body) = get(
        addr,
        &format!("/queries/{cookie}/results?mode=aggregate&field=count&agg=sum"),
    );
    assert!(status.contains("200"), "{status}: {body}");
    assert!(body.contains("\"mode\":\"aggregate\""), "{body}");
    assert!(body.contains("\"agg\":\"sum\""), "{body}");
    assert!(body.contains("\"plan\":{\"pushdown\":"), "{body}");

    // Distinct over a string field on a bucket-aligned range that sealed
    // segments cover entirely: the cells hold nothing for strings, so
    // the answer must come from the replay fallback, not `null`.
    while store.stats().segments < 4 {
        assert!(
            std::time::Instant::now() < deadline,
            "segments never sealed: {:?}",
            store.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let series = SeriesKey::new(cookie, "");
    let first = store.range(&series, 0, u64::MAX).expect("range")[0].ts_ns;
    let from = first.next_multiple_of(BUCKET_NS);
    let to = from + 2 * BUCKET_NS - 1;
    let q = HistoryQuery::new(series, "key", from, to, HistoryAgg::Distinct);
    let AggValue::Distinct(urls) = store.history_replay(&q).expect("replay").value else {
        panic!("the range holds ranked urls");
    };
    let (status, body) = get(
        addr,
        &format!(
            "/queries/{cookie}/results?mode=aggregate&field=key&agg=distinct&from={from}&to={to}"
        ),
    );
    assert!(status.contains("200"), "{status}: {body}");
    assert!(body.contains(&format!("\"value\":{urls},")), "{body}");
    assert!(body.contains("\"plan\":{\"pushdown\":false"), "{body}");

    // Rollup: bucketed summaries at the native width.
    let (status, body) = get(
        addr,
        &format!("/queries/{cookie}/results?mode=rollup&field=count"),
    );
    assert!(status.contains("200"), "{status}: {body}");
    assert!(body.contains("\"mode\":\"rollup\""), "{body}");
    assert!(body.contains("\"buckets\":["), "{body}");
    assert!(body.contains("\"bucket_start\":"), "{body}");

    // Typed 400s: unknown mode names every accepted spelling...
    let (status, body) = get(addr, &format!("/queries/{cookie}/results?mode=medians"));
    assert!(status.contains("400"), "{status}: {body}");
    assert!(body.contains("\"code\":\"bad_request\""), "{body}");
    assert!(
        body.contains("history|latest|range|rollup|aggregate"),
        "{body}"
    );
    // ...rollup without a field is refused up front...
    let (status, body) = get(addr, &format!("/queries/{cookie}/results?mode=rollup"));
    assert!(status.contains("400"), "{status}: {body}");
    assert!(body.contains("requires field="), "{body}");
    // ...a bucket below the native width surfaces the store's typed
    // refusal as a 400...
    let (status, body) = get(
        addr,
        &format!("/queries/{cookie}/results?mode=rollup&field=count&bucket_ms=1"),
    );
    assert!(status.contains("400"), "{status}: {body}");
    // ...and an unknown aggregate too.
    let (status, body) = get(
        addr,
        &format!("/queries/{cookie}/results?mode=aggregate&field=count&agg=mode"),
    );
    assert!(status.contains("400"), "{status}: {body}");
    assert!(body.contains("agg must be"), "{body}");
}

/// A standing query over the wire: `POST /queries?standing_every_ms=`
/// registers the continuous schedule, `standing_fired` events show up
/// on `/events`, and the materialized windows read back through the
/// ordinary `mode=range` results route under the derived series.
#[test]
fn frontend_standing_query_materializes_over_http() {
    let store = Arc::new(TimeSeriesStore::in_memory());
    let builder = Orchestrator::builder(4).result_store(store);
    let frontend = QueryFrontend::spawn("127.0.0.1:0", builder, deploy_web).expect("spawn");
    let addr = frontend.local_addr();

    // Malformed standing parameters are typed 400s before submission.
    let (status, body) = request(addr, "POST", "/queries?standing_every_ms=0", &[], QUERY);
    assert!(status.contains("400"), "{status}: {body}");
    assert!(body.contains("standing_every_ms"), "{body}");
    let (status, body) = request(
        addr,
        "POST",
        "/queries?standing_every_ms=100&standing_agg=bogus",
        &[],
        QUERY,
    );
    assert!(status.contains("400"), "{status}: {body}");
    assert!(body.contains("standing_agg"), "{body}");
    let (status, body) = request(addr, "POST", "/queries?standing_agg=sum", &[], QUERY);
    assert!(status.contains("400"), "{status}: {body}");
    assert!(body.contains("requires standing_every_ms"), "{body}");

    // A well-formed standing submit is a plain 201 descriptor.
    let (status, descriptor) = request(
        addr,
        "POST",
        "/queries?standing_every_ms=100&standing_agg=sum&standing_field=count",
        &[],
        QUERY,
    );
    assert!(status.contains("201"), "{status}: {descriptor}");
    let cookie = extract_cookie(&descriptor);

    // The reconciler fires windows as virtual time advances; no
    // subscriber is ever attached.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (_, events) = get(addr, &format!("/events?cookie={cookie}"));
        if events.matches("standing_fired").count() >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "standing windows never fired: {events}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The materialized aggregates are ordinary range reads on the
    // derived series.
    let (status, body) = get(
        addr,
        &format!(
            "/queries/{cookie}/results?mode=range&group=standing:sum:count&from=0&to={}",
            u64::MAX
        ),
    );
    assert!(status.contains("200"), "{status}: {body}");
    assert!(body.contains("\"window_end\":"), "{body}");
    assert!(body.contains("\"agg\":\"sum\""), "{body}");
}

/// Priority eviction over the wire: bulk (priority 10) fills the
/// fabric until a submit hits 503 `no_free_host`; then ops
/// (priority 200) submits, a bulk query is evicted to make room, and
/// the eviction is visible in the directory and the journal. Once the
/// LIMIT has passed, the evicted query is not counted a second time as
/// a deadline kill.
#[test]
fn frontend_priority_eviction_frees_capacity() {
    // 20 virtual seconds: at least a wall-clock second of idle ticks,
    // ample for the requests that must land while everything runs.
    let query = QUERY.replace("LIMIT 600s", "LIMIT 20s");
    let query = query.as_str();
    let builder = Orchestrator::builder(4)
        .tenant(Tenant::new("bulk", TenantQuota::UNLIMITED, 10))
        .tenant(Tenant::new("ops", TenantQuota::UNLIMITED, 200));
    let frontend = QueryFrontend::spawn("127.0.0.1:0", builder, deploy_web).expect("spawn");
    let addr = frontend.local_addr();

    // Fill the fabric with bulk queries until placement refuses.
    let mut bulk_cookies = Vec::new();
    let mut saturated = false;
    for _ in 0..8 {
        let (status, body) = request(addr, "POST", "/queries?tenant=bulk", &[], query);
        if status.contains("201") {
            bulk_cookies.push(extract_cookie(&body));
        } else {
            assert!(status.contains("503"), "{status}: {body}");
            assert!(body.contains("\"code\":\"no_free_host\""), "{body}");
            saturated = true;
            break;
        }
    }
    assert!(saturated, "fabric saturates within 8 bulk queries");
    assert!(!bulk_cookies.is_empty(), "some bulk queries were admitted");

    // Ops outranks bulk: its submission evicts instead of failing.
    let (status, descriptor) = request(addr, "POST", "/queries?tenant=ops", &[], query);
    assert!(
        status.contains("201"),
        "eviction made room: {status}: {descriptor}"
    );
    assert!(descriptor.contains("\"tenant\":\"ops\""), "{descriptor}");

    // Exactly one bulk query lost its slot, and the flight recorder
    // explains why.
    let killed: Vec<u64> = bulk_cookies
        .iter()
        .copied()
        .filter(|c| {
            let (_, one) = get(addr, &format!("/queries/{c}"));
            one.contains("\"state\":\"killed\"")
        })
        .collect();
    assert_eq!(killed.len(), 1, "one bulk victim, got {killed:?}");
    let (_, events) = get(addr, &format!("/events?cookie={}", killed[0]));
    assert!(events.contains("query_evicted"), "{events}");
    assert!(
        events.contains(r#"higher-priority \"ops\""#),
        "victim's record names the evictor: {events}"
    );

    // Every query still running is killed by its LIMIT; the counter
    // must name those and not the victim, whose deadline passes too.
    let ops_cookie = extract_cookie(&descriptor);
    for &c in bulk_cookies.iter().chain([&ops_cookie]) {
        wait_killed(addr, c);
    }
    // The surviving bulk queries plus ops, not the evicted one.
    assert_counter(addr, "frontend_deadline_kills", bulk_cookies.len() as u64);
}

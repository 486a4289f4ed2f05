//! Pod-kill chaos suite over the scale-out control plane.
//!
//! Builds a [`Cluster`] over a replicated [`ShardedStore`], plants a
//! standing-query workload in one pod per orchestrator shard, then
//! kills those pods wholesale — every host, every host uplink, and the
//! colocated store primary — one after another, asserting after each:
//!
//! * every monitor and the aggregator of the dead pod re-placed within
//!   the detection budget (`miss_threshold` heartbeats),
//! * reads of series on the degraded store shard return the full
//!   pre-fault commit prefix from the surviving replica,
//! * every standing window cadence stays gap-free — empty windows
//!   materialize on schedule even where the pod's traffic died.
//!
//! Exits non-zero on any violation. Run with:
//! `cargo run --release -p netalytics-bench --bin scaleout_chaos`
//! (k=32, 4 shards; add `--quick` for the CI-sized k=8, 2-shard run).
//! The recorded table is `results/scaleout_chaos.txt`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use netalytics::cluster::{Cluster, ClusterConfig};
use netalytics::{ResultBackend, SeriesKey, ShardedConfig, ShardedStore, StandingConfig};
use netalytics_apps::{sample_sink, ClientApp, Conversation, StaticHttpBehavior, TierApp};
use netalytics_data::{DataTuple, TupleBatch};
use netalytics_netsim::{SimDuration, SimTime};
use netalytics_packet::http;

const STORE_SHARDS: usize = 8;

fn rank_query(host: &str) -> String {
    format!(
        "PARSE http_get FROM * TO {host}:80 LIMIT 100s SAMPLE * \
         PROCESS (top-k: k=5, w=50ms, key=url)"
    )
}

fn deploy_pair(cluster: &Cluster, name: &str, web: u32, conversations: u64) {
    cluster.name_host(name, web);
    let web_ip = cluster.host_ip(web);
    cluster.deploy_app_on(web, || {
        Box::new(TierApp::new(80, Box::new(StaticHttpBehavior::new(1.0, 3))))
    });
    let server = name.to_string();
    cluster.deploy_app_on(web + 1, move || {
        let schedule = (0..conversations)
            .map(|i| {
                (
                    SimTime::from_nanos(i * 10_000_000),
                    Conversation {
                        dst: (web_ip, 80),
                        requests: vec![http::build_get("/r", &server)],
                        tag: "c".into(),
                    },
                )
            })
            .collect();
        Box::new(ClientApp::new(schedule, sample_sink()))
    });
}

fn run_to(cluster: &Cluster, until: SimTime) {
    let hb = cluster.heartbeat_interval();
    while cluster.now() < until {
        cluster.tick(hb, SimDuration::from_millis(50));
    }
}

fn field(t: &DataTuple, name: &str) -> u64 {
    t.get(name)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("materialized tuple carries {name}"))
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let (k, shards) = if quick { (8u32, 2usize) } else { (32, 4) };
    let hb = SimDuration::from_millis(10);
    let grace = SimDuration::from_millis(50);
    let window = SimDuration::from_millis(100);
    let hosts_per_pod = (k / 2) * (k / 2);

    let store = Arc::new(ShardedStore::in_memory(ShardedConfig {
        shards: STORE_SHARDS,
        replication: 2,
        ..ShardedConfig::default()
    }));
    let cluster = Cluster::new(ClusterConfig {
        k,
        shards,
        heartbeat_interval: hb,
        store: Some(Arc::clone(&store)),
        ..ClusterConfig::default()
    });
    let miss = u64::from(cluster.failure_policy().miss_threshold);
    let budget = SimDuration::from_nanos(hb.as_nanos() * miss);

    // One victim pod per orchestrator shard (second pod of each range,
    // so pod 0's survivor workload is never touched), plus a survivor
    // pair in pod 0 whose cadence must never flinch.
    let victim_pods: Vec<u32> = cluster.pod_bounds().iter().map(|&(lo, _)| lo + 1).collect();
    deploy_pair(&cluster, "base", 1, 2_000);
    let survivor = cluster
        .submit_standing_as("default", &rank_query("base"), StandingConfig::new(window))
        .expect("survivor standing query");
    let mut victims = Vec::new();
    for (i, &pod) in victim_pods.iter().enumerate() {
        let name = format!("v{i}");
        deploy_pair(&cluster, &name, pod * hosts_per_pod + 1, 2_000);
        let cookie = cluster
            .submit_standing_as("default", &rank_query(&name), StandingConfig::new(window))
            .expect("victim standing query");
        victims.push((pod, cookie));
    }

    let mut report = String::new();
    let _ = writeln!(
        report,
        "pod-kill chaos — k={k} ({} hosts/pod), {shards} orchestrator shard(s), \
         {STORE_SHARDS}-shard store (replication 2), heartbeat {} ms, \
         budget {} heartbeats\n",
        hosts_per_pod,
        hb.as_nanos() / 1_000_000,
        miss
    );
    let _ = writeln!(
        report,
        "{:>4} {:>6} {:>6} {:>6} {:>9} {:>13} {:>9} {:>8}",
        "pod", "shard", "hosts", "links", "replicas", "recovery (ms)", "replaced", "verdict"
    );

    let mut failed = false;
    run_to(&cluster, SimTime::from_nanos(300_000_000));
    let mut clock = 300_000_000u64;
    for &(pod, cookie) in &victims {
        // Pin a probe to a store shard colocated with this pod, if one
        // is (store shard s lives in pod s % k).
        let colocated = (0..STORE_SHARDS).find(|&s| s as u32 % k == pod);
        let probe = colocated.map(|shard| {
            let key = (0..)
                .map(|i| SeriesKey::new(cookie, format!("probe{i}")))
                .find(|key| store.shard_of(key) == shard)
                .expect("some group hashes onto the colocated shard");
            let batch = TupleBatch::from_tuples(
                (0..32u64)
                    .map(|i| DataTuple::new(i, i * 1_000).with("v", i))
                    .collect(),
            );
            store.append(&key, &batch).expect("probe commit");
            (shard, key)
        });

        let monitors = cluster.directory().get(cookie).expect("directory").monitors;
        let t_fail = cluster.now();
        let kill = cluster.fail_pod(pod);
        let mut replaced = 0;
        let mut in_budget = true;
        while replaced < monitors + 1 {
            replaced += cluster.tick(hb, grace).replaced;
            if cluster.now() > t_fail + budget {
                in_budget = false;
                break;
            }
        }
        let recovery_ms = (cluster.now() - t_fail).as_nanos() as f64 / 1e6;

        // Replicated reads: the surviving replica serves the full
        // pre-fault commit prefix of the colocated shard.
        let mut store_ok = true;
        if let Some((shard, key)) = &probe {
            store_ok &= kill.store_replicas == 1;
            store_ok &= store.leader_of(*shard) == Some(1);
            store_ok &= store
                .range(key, 0, u64::MAX)
                .map(|t| t.len() == 32)
                .unwrap_or(false);
        }

        let ok = in_budget && store_ok;
        failed |= !ok;
        let _ = writeln!(
            report,
            "{:>4} {:>6} {:>6} {:>6} {:>9} {:>13.1} {:>9} {:>8}",
            pod,
            kill.shard,
            kill.hosts,
            kill.links,
            kill.store_replicas,
            recovery_ms,
            replaced,
            if ok { "ok" } else { "FAIL" }
        );

        // Heal before the next kill: hosts return, replicas come back
        // stale and are explicitly resynced.
        cluster.repair_pod(pod);
        if let Some((shard, _)) = probe {
            store.clear_stale(shard, 0);
        }
        clock += 200_000_000;
        run_to(&cluster, SimTime::from_nanos(clock));
    }

    // Gap-free standing cadences, across every kill and repair: each
    // window starts exactly where the previous one ended, survivors
    // and victims alike (victims fire empty windows once their traffic
    // died with the pod).
    run_to(&cluster, SimTime::from_nanos(clock + 200_000_000));
    let mut cadences_ok = true;
    let mut total_windows = 0;
    for cookie in std::iter::once(survivor).chain(victims.iter().map(|&(_, c)| c)) {
        let series = SeriesKey::new(cookie, "standing:sum:count");
        let windows = store.range(&series, 0, u64::MAX).expect("windows");
        cadences_ok &= windows.len() >= 5;
        for pair in windows.windows(2) {
            cadences_ok &= field(&pair[0], "window_end") == field(&pair[1], "window_start");
        }
        total_windows += windows.len();
    }
    failed |= !cadences_ok;
    let _ = writeln!(
        report,
        "\nstanding cadences: {} queries, {total_windows} windows, gap-free: {cadences_ok}",
        victims.len() + 1
    );
    let _ = writeln!(report, "verdict: {}", if failed { "FAIL" } else { "PASS" });

    print!("{report}");
    cluster.kill_all();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
